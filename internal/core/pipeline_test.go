package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ccx/internal/arith"
	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/faultnet"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/testx"
	"ccx/internal/tracing"
)

// pipelineCodecs is the built-in registry plus arithmetic coding, so
// spreadPolicy can spread blocks over every method.
var pipelineCodecs = func() *codec.Registry {
	reg := codec.NewRegistry()
	reg.Register(codec.NewFuncCodec(codec.Arithmetic, arith.Compress, arith.Decompress))
	return reg
}()

// spreadPolicy keys the method choice on content-derived probe inputs only
// (entropy, repetition, probe ratio, block length) — never on timing — so
// the decision for a given block is identical no matter which worker runs
// it or when. That makes N-worker output provably byte-identical to the
// 1-worker output, which is what the pipeline's ordering tests assert.
type spreadPolicy struct{}

func (spreadPolicy) Name() string { return "spread" }

// SamplesEveryBlock opts out of probe reuse (selector.PerBlockSampler): the
// choice is a function of each block's own sample and nothing else.
func (spreadPolicy) SamplesEveryBlock() bool { return true }

func (spreadPolicy) Select(in selector.Inputs) selector.Decision {
	methods := []codec.Method{codec.None, codec.Huffman, codec.Arithmetic, codec.LempelZiv, codec.BurrowsWheeler}
	k := in.BlockLen + int(in.Entropy*4096) + int(in.Repetition*4096) + int(in.ProbeRatio*4096)
	return selector.Decision{Method: methods[k%len(methods)], Inputs: in}
}

// pipelineCorpus builds a seeded stream mixing the shapes that drive every
// codec down a different path: long runs, incompressible noise, and
// repetitive text.
func pipelineCorpus(t testing.TB, size int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 0, size)
	text := datagen.OISTransactions(size/3, 0.9, 11)
	data = append(data, text...)
	runs := make([]byte, size/3)
	for i := range runs {
		runs[i] = byte(i / 997)
	}
	data = append(data, runs...)
	noise := make([]byte, size-len(data))
	rng.Read(noise)
	data = append(data, noise...)
	return data
}

func pipelineEngine(t testing.TB, workers, blockSize int, tel Telemetry) *Engine {
	t.Helper()
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	e, err := NewEngine(Config{
		Selector:  cfg,
		Registry:  pipelineCodecs,
		Policy:    spreadPolicy{},
		Workers:   workers,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// streamBytes runs data through a Session (sequential or pipelined per the
// engine's worker count) into a buffer and returns wire bytes + results.
func streamBytes(t testing.TB, e *Engine, data []byte) ([]byte, []BlockResult) {
	t.Helper()
	var wire bytes.Buffer
	s := NewSession(e)
	results, err := s.Stream(data, func(frame []byte) (time.Duration, error) {
		wire.Write(frame)
		return time.Microsecond, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), results
}

// TestPipelineByteIdentity is the ordering acceptance test: for a seeded
// mixed-shape stream, the wire bytes produced with 2, 4, and 8 workers must
// equal the 1-worker (sequential Session) output exactly, and the stream
// must decode back to the original data. Run under -race this also
// exercises every cross-worker handoff.
func TestPipelineByteIdentity(t *testing.T) {
	const blockSize = 16 << 10
	data := pipelineCorpus(t, 48*blockSize+123) // ragged final block on purpose
	want, wantRes := streamBytes(t, pipelineEngine(t, 1, blockSize, Telemetry{}), data)

	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, res := streamBytes(t, pipelineEngine(t, workers, blockSize, Telemetry{}), data)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-worker wire stream differs from sequential: %d vs %d bytes",
					workers, len(got), len(want))
			}
			if len(res) != len(wantRes) {
				t.Fatalf("got %d results, want %d", len(res), len(wantRes))
			}
			for i, r := range res {
				if r.Index != i {
					t.Fatalf("result %d carries index %d: emission out of order", i, r.Index)
				}
				if r.Workers != workers {
					t.Fatalf("result %d reports %d workers, want %d", i, r.Workers, workers)
				}
				if r.Info.Method != wantRes[i].Info.Method {
					t.Fatalf("block %d method %v, sequential chose %v", i, r.Info.Method, wantRes[i].Info.Method)
				}
			}
			decoded, err := io.ReadAll(NewReader(bytes.NewReader(got), pipelineCodecs, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(decoded, data) {
				t.Fatalf("decoded stream differs from original (%d vs %d bytes)", len(decoded), len(data))
			}
		})
	}
}

// TestPipelineStallIdentity drives the 4-worker pipeline through a faultnet
// link that stalls mid-frame: the stall must delay, not reorder or damage,
// the stream — the receiver still sees the exact sequential bytes.
func TestPipelineStallIdentity(t *testing.T) {
	const blockSize = 8 << 10
	data := pipelineCorpus(t, 16*blockSize)
	want, _ := streamBytes(t, pipelineEngine(t, 1, blockSize, Telemetry{}), data)

	client, server := net.Pipe()
	faulty := faultnet.Wrap(client, faultnet.Plan{StallAt: len(want) / 2, Stall: 30 * time.Millisecond})
	received := make(chan []byte, 1)
	go func() {
		raw, _ := io.ReadAll(server)
		received <- raw
	}()

	e := pipelineEngine(t, 4, blockSize, Telemetry{})
	s := NewSession(e)
	if _, err := s.Stream(data, func(frame []byte) (time.Duration, error) {
		start := time.Now()
		if _, err := faulty.Write(frame); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	client.Close()
	got := <-received
	server.Close()
	if !bytes.Equal(got, want) {
		t.Fatalf("stalled 4-worker stream differs from sequential: %d vs %d bytes", len(got), len(want))
	}
}

// waitGoroutines polls until the goroutine count falls back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	testx.WaitUntil(t, fmt.Sprintf("goroutines to fall back to the baseline of %d", base),
		func() bool { return runtime.NumGoroutine() <= base })
}

// TestPipelineShutdownNoLeaks kills the pipeline in the three unhappy ways
// — transport error mid-stream, encode error, and early Close with blocks
// still in flight — and requires every worker and the sequencer to exit.
func TestPipelineShutdownNoLeaks(t *testing.T) {
	const blockSize = 4 << 10
	data := pipelineCorpus(t, 8*blockSize)
	base := runtime.NumGoroutine()

	t.Run("send-error", func(t *testing.T) {
		e := pipelineEngine(t, 4, blockSize, Telemetry{})
		sent := 0
		boom := errors.New("link down")
		p := NewPipeline(e, 4, nil, e.sendSink(func(frame []byte) (time.Duration, error) {
			sent++
			if sent > 2 {
				return 0, boom
			}
			return 0, nil
		}, nil))
		var submitErr error
		for i := 0; i < 64; i++ {
			if submitErr = p.Submit(Job{Block: data[:blockSize]}); submitErr != nil {
				break
			}
		}
		err := p.Close()
		if !errors.Is(err, boom) {
			t.Fatalf("Close = %v, want the transport error", err)
		}
		if submitErr != nil && !errors.Is(submitErr, boom) {
			t.Fatalf("Submit = %v, want the transport error", submitErr)
		}
		if p.Err() == nil {
			t.Fatal("Err() lost the failure")
		}
	})

	t.Run("encode-error", func(t *testing.T) {
		// An unregistered method poisons the encode inside the worker.
		reg := codec.NewRegistry()
		cfg := selector.DefaultConfig()
		cfg.BlockSize = blockSize
		e, err := NewEngine(Config{
			Selector: cfg,
			Registry: reg,
			Policy:   staticPolicy{method: codec.Method(77)},
			Workers:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline(e, 4, nil, e.sendSink(func([]byte) (time.Duration, error) { return 0, nil }, nil))
		for i := 0; i < 8; i++ {
			if err := p.Submit(Job{Block: data[:blockSize]}); err != nil {
				break
			}
		}
		if err := p.Close(); err == nil {
			t.Fatal("Close succeeded despite unregistered method")
		}
	})

	t.Run("early-close", func(t *testing.T) {
		e := pipelineEngine(t, 4, blockSize, Telemetry{})
		p := NewPipeline(e, 4, nil, e.sendSink(func([]byte) (time.Duration, error) { return 0, nil }, nil))
		for i := 0; i < 6; i++ {
			if err := p.Submit(Job{Block: data[i*blockSize : (i+1)*blockSize]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := p.Submit(Job{Block: data[:blockSize]}); !errors.Is(err, ErrPipelineClosed) {
			t.Fatalf("Submit after Close = %v, want ErrPipelineClosed", err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("second Close = %v", err)
		}
	})

	waitGoroutines(t, base)
}

// staticPolicy always selects one method.
type staticPolicy struct{ method codec.Method }

func (staticPolicy) Name() string { return "static" }

func (p staticPolicy) Select(in selector.Inputs) selector.Decision {
	return selector.Decision{Method: p.method, Inputs: in}
}

// sleepCodec simulates an expensive compressor whose cost is pure latency,
// so encode overlap is measurable even on a single-core machine.
type sleepCodec struct{ d time.Duration }

func (c sleepCodec) Method() codec.Method { return codec.FirstCustom }
func (c sleepCodec) Compress(src []byte) ([]byte, error) {
	time.Sleep(c.d)
	out := make([]byte, len(src)/2)
	return out, nil
}
func (c sleepCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	return make([]byte, origLen), nil
}

// TestPipelineOverlap demonstrates the point of the subsystem: with encode
// cost dominating, 4 workers must finish the same stream at least twice as
// fast as 1 worker. The cost is simulated with sleeps so the assertion
// holds on single-core CI runners too; BenchmarkPipeline* measures the real
// codecs on real cores.
func TestPipelineOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		blocks    = 8
		blockSize = 1 << 10
		cost      = 10 * time.Millisecond
	)
	run := func(workers int) time.Duration {
		reg := codec.NewRegistry()
		reg.Register(sleepCodec{d: cost})
		cfg := selector.DefaultConfig()
		cfg.BlockSize = blockSize
		e, err := NewEngine(Config{
			Selector: cfg,
			Registry: reg,
			Policy:   staticPolicy{method: codec.FirstCustom},
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, blocks*blockSize)
		start := time.Now()
		s := NewSession(e)
		if _, err := s.Stream(data, func([]byte) (time.Duration, error) { return 0, nil }, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Timing tests can lose to scheduler noise; allow one retry.
	for attempt := 0; ; attempt++ {
		t1, t4 := run(1), run(4)
		if t4 > 0 && float64(t1)/float64(t4) >= 2 {
			t.Logf("1 worker %v, 4 workers %v (%.1fx)", t1, t4, float64(t1)/float64(t4))
			return
		}
		if attempt >= 1 {
			t.Fatalf("4-worker pipeline not ≥2x faster: 1 worker %v, 4 workers %v", t1, t4)
		}
	}
}

// TestPipelineTelemetry checks the pipeline's observability wiring: the
// in-flight depth gauge and sequencer-wait histogram exist and fill, decide
// spans carry the worker count, every sequencer stall is a pipe-wait span,
// and submitted sequence numbers reach the wire.
func TestPipelineTelemetry(t *testing.T) {
	const blockSize = 4 << 10
	met := metrics.NewRegistry()
	tracer := tracing.New("test", 1, 256)
	e := pipelineEngine(t, 3, blockSize, Telemetry{Metrics: met, Tracer: tracer, Stream: "pipe"})
	data := pipelineCorpus(t, 12*blockSize)

	var wire bytes.Buffer
	p := NewPipeline(e, 3, nil, e.sendSink(func(frame []byte) (time.Duration, error) {
		wire.Write(frame)
		return time.Microsecond, nil
	}, nil))
	var seq uint64
	for off := 0; off < len(data); off += blockSize {
		seq++
		if err := p.Submit(Job{Block: data[off : off+blockSize], Seq: seq, HasSeq: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	snap := met.Snapshot()
	if _, ok := snap["ccx.pipeline_depth"]; !ok {
		t.Fatal("ccx.pipeline_depth gauge missing")
	}
	if got := snap["ccx.pipeline_depth"]; got != 0 {
		t.Fatalf("pipeline_depth = %v after Close, want 0", got)
	}
	if got := snap["ccx.pipeline_wait_seconds.count"]; got != 12 {
		t.Fatalf("pipeline_wait_seconds.count = %v, want 12", got)
	}
	recs := stageSpans(tracer, tracing.StageDecide)
	if len(recs) != 12 {
		t.Fatalf("got %d decide spans, want 12", len(recs))
	}
	for i, r := range recs {
		if r.Decision.Workers != 3 {
			t.Fatalf("decide span %d workers = %d, want 3", i, r.Decision.Workers)
		}
		if r.Stream != "pipe" || r.Seq != uint64(i)+1 {
			t.Fatalf("decide span %d stream = %q seq = %d", i, r.Stream, r.Seq)
		}
	}
	for _, w := range stageSpans(tracer, tracing.StagePipeWait) {
		if w.Dur <= 0 || w.Stream != "pipe" {
			t.Fatalf("pipe-wait span = %+v", w)
		}
	}

	// The sequenced frames must decode with their sequence numbers in order.
	fr := codec.NewFrameReader(bytes.NewReader(wire.Bytes()), pipelineCodecs)
	var want uint64
	for {
		_, info, err := fr.ReadBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want++
		if !info.HasSeq || info.Seq != want {
			t.Fatalf("frame seq = %d (hasSeq=%v), want %d", info.Seq, info.HasSeq, want)
		}
	}
	if want != 12 {
		t.Fatalf("decoded %d sequenced frames, want 12", want)
	}
}

// TestPipelineSinkOwnsBuffer is the ownership contract: a buffer the sink
// keeps is the sink's — the pipeline never writes to it again, however many
// later blocks its workers encode into the same pool. Every other frame is
// kept and read by a second goroutine while the stream is still running
// (under -race a stray write would trip the detector), and all kept frames
// must still hold the sequential loop's bytes after Close.
func TestPipelineSinkOwnsBuffer(t *testing.T) {
	const blockSize = 8 << 10
	data := pipelineCorpus(t, 40*blockSize)
	var want [][]byte
	s := NewSession(pipelineEngine(t, 1, blockSize, Telemetry{}))
	if _, err := s.Stream(data, func(frame []byte) (time.Duration, error) {
		want = append(want, bytes.Clone(frame))
		return 0, nil
	}, nil); err != nil {
		t.Fatal(err)
	}

	type kept struct {
		index int
		buf   *[]byte
	}
	var all []kept
	watch := make(chan kept, len(want))
	watched := make(chan error, 1)
	go func() {
		for k := range watch {
			if !bytes.Equal(*k.buf, want[k.index]) {
				watched <- fmt.Errorf("kept frame %d differs from the sequential frame on arrival", k.index)
				return
			}
		}
		watched <- nil
	}()
	pool := &sync.Pool{New: func() any { return new([]byte) }}
	p := NewPipeline(pipelineEngine(t, 4, blockSize, Telemetry{}), 4, pool, func(enc Encoded) (bool, error) {
		i := enc.Result.Index
		if i%2 == 1 {
			if !bytes.Equal(*enc.Buf, want[i]) {
				return false, fmt.Errorf("frame %d differs from the sequential frame", i)
			}
			return false, nil // handed back: the pool may reuse it at once
		}
		k := kept{i, enc.Buf}
		all = append(all, k)
		watch <- k
		return true, nil
	})
	for off := 0; off < len(data); off += blockSize {
		if err := p.Submit(Job{Block: data[off : off+blockSize]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(watch)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	if len(all) != len(want)/2 {
		t.Fatalf("kept %d frames, want %d", len(all), len(want)/2)
	}
	for _, k := range all {
		if !bytes.Equal(*k.buf, want[k.index]) {
			t.Fatalf("kept frame %d was overwritten after the sink took ownership", k.index)
		}
	}
}

// TestPipelineEmptyBlock: an empty block is a block. It yields the same
// frame bytes and its own BlockResult whether the sequential loop or the
// pipeline carries it.
func TestPipelineEmptyBlock(t *testing.T) {
	const blockSize = 4 << 10
	data := pipelineCorpus(t, 2*blockSize)
	blocks := [][]byte{data[:blockSize], {}, data[blockSize:]}
	run := func(workers int) ([]byte, []BlockResult) {
		var wire bytes.Buffer
		s := NewSession(pipelineEngine(t, workers, blockSize, Telemetry{}))
		res, err := s.StreamBlocks(blocks, func(frame []byte) (time.Duration, error) {
			wire.Write(frame)
			return 0, nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return wire.Bytes(), res
	}
	want, wantRes := run(1)
	got, gotRes := run(4)
	if !bytes.Equal(got, want) {
		t.Fatalf("4-worker stream with an empty block differs from sequential: %d vs %d bytes", len(got), len(want))
	}
	if len(wantRes) != len(blocks) || len(gotRes) != len(blocks) {
		t.Fatalf("results: sequential %d, pipelined %d, want %d each", len(wantRes), len(gotRes), len(blocks))
	}
	if gotRes[1].Index != 1 || gotRes[1].Info.OrigLen != 0 || gotRes[1].WireBytes != wantRes[1].WireBytes {
		t.Fatalf("empty block's result = %+v, sequential reported %+v", gotRes[1], wantRes[1])
	}
}
