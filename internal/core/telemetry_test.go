package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

func telemetryEngine(t *testing.T, blockSize int, tel Telemetry) *Engine {
	t.Helper()
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	e, err := NewEngine(Config{Selector: cfg, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSessionTelemetry(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := tracing.New("test", 1, 0)
	e := telemetryEngine(t, 8<<10, Telemetry{Metrics: reg, Tracer: tracer, Stream: "send"})
	data := datagen.OISTransactions(64<<10, 0.9, 7)

	var wire bytes.Buffer
	w := NewWriter(&wire, e, nil)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	const blocks = 8 // 64 KiB / 8 KiB
	if got := snap["ccx.tx_blocks"]; got != blocks {
		t.Errorf("tx_blocks = %v, want %d", got, blocks)
	}
	if got := snap["ccx.encode_seconds.count"]; got != blocks {
		t.Errorf("encode latency observations = %v, want %d", got, blocks)
	}
	if got := snap["ccx.tx_block_bytes.count"]; got != blocks {
		t.Errorf("block size observations = %v, want %d", got, blocks)
	}

	// Sampled at rate 1, every block's decision is a decide span.
	recs := stageSpans(tracer, tracing.StageDecide)
	if len(recs) != blocks {
		t.Fatalf("ring has %d decide spans, want %d", len(recs), blocks)
	}
	var methodTotal float64
	for _, m := range e.Registry().Methods() {
		methodTotal += snap["ccx.tx_method."+m.String()]
	}
	if methodTotal != blocks {
		t.Errorf("per-method counters sum to %v, want %d", methodTotal, blocks)
	}
	writes := stageSpans(tracer, tracing.StageWrite)
	if len(writes) != blocks {
		t.Fatalf("ring has %d write spans, want %d", len(writes), blocks)
	}
	for i, rec := range recs {
		if rec.Stream != "send" || rec.Seq != uint64(i)+1 || rec.Trace == 0 || rec.Dur != 0 {
			t.Errorf("decide span %d: %+v", i, rec)
		}
		if rec.Method == "" || rec.Decision == nil || rec.Decision.Reason == "" {
			t.Fatalf("decide span %d missing method/reason: %+v", i, rec)
		}
		if writes[i].Bytes <= 0 || writes[i].Trace != rec.Trace || rec.Decision.BlockLen <= 0 {
			t.Errorf("block %d missing sizes: %+v %+v", i, writes[i], rec.Decision)
		}
	}
	// The first block is always sent raw (no goodput measurement yet) and
	// the span must say why — and say it as an always-on span.
	if recs[0].Method != "none" || !strings.Contains(recs[0].Decision.Reason, "no goodput") || !recs[0].Anomaly {
		t.Errorf("first decide span = %+v %+v, want raw with first-block reason", recs[0], recs[0].Decision)
	}
}

// stageSpans returns the ring's spans of one stage, oldest first.
func stageSpans(tr *tracing.Tracer, stage string) []tracing.Span {
	var out []tracing.Span
	for _, s := range tr.Ring().Recent(0) {
		if s.Stage == stage {
			out = append(out, s)
		}
	}
	return out
}

// switchPolicy picks its method by block ordinal: LZ for blocks 3..5, raw
// otherwise.
type switchPolicy struct{ n *int }

func (switchPolicy) Name() string { return "switch" }

func (p switchPolicy) Select(in selector.Inputs) selector.Decision {
	*p.n++
	d := selector.Decision{Method: codec.None, Inputs: in, LZReduceTime: in.LZReduceTime()}
	if *p.n >= 3 && *p.n <= 5 {
		d.Method = codec.LempelZiv
	}
	return d
}

// TestSwitchIsAlwaysRecorded: with sampling off, the only spans a sender
// records are its decisions that changed something — the stream's first and
// each switch of method — exactly one decide span apiece, worded, of zero
// length; the unchanged blocks in between record nothing.
func TestSwitchIsAlwaysRecorded(t *testing.T) {
	tracer := tracing.New("test", 0, 0)
	var n int
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 4 << 10
	e, err := NewEngine(Config{Selector: cfg, Policy: switchPolicy{&n},
		Telemetry: Telemetry{Tracer: tracer, Stream: "send"}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(e)
	block := datagen.OISTransactions(4<<10, 0.9, 5)
	send := func([]byte) (time.Duration, error) { return time.Millisecond, nil }
	spansAfter := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		if _, err := s.TransmitBlock(block, send); err != nil {
			t.Fatal(err)
		}
		spansAfter = append(spansAfter, len(tracer.Ring().Recent(0)))
	}
	// Blocks 1 (first), 3 (none->lz) and 6 (lz->none) switch; 2, 4, 5, 7, 8 do not.
	if want := []int{1, 1, 2, 2, 2, 3, 3, 3}; fmt.Sprint(spansAfter) != fmt.Sprint(want) {
		t.Fatalf("span count after each block = %v, want %v", spansAfter, want)
	}
	for i, sp := range tracer.Ring().Recent(0) {
		wantSeq := []uint64{1, 3, 6}[i]
		wantMethod := []string{"none", "lempel-ziv", "none"}[i]
		if sp.Stage != tracing.StageDecide || sp.Seq != wantSeq || sp.Method != wantMethod ||
			sp.Trace != 0 || sp.Dur != 0 || !sp.Anomaly || sp.Decision == nil || sp.Decision.Reason == "" {
			t.Fatalf("always-on span %d = %+v (%+v), want decide seq %d %s", i, sp, sp.Decision, wantSeq, wantMethod)
		}
	}
}

// TestReaderTelemetryCorruptFrame is the onBlock/SetCorruptHandler
// interaction test: a frame corrupted in flight must (a) reach the corrupt
// handler, (b) be skipped via resync while later frames still decode, and
// (c) leave its mark in both the metrics counters and the span ring,
// without ever reaching onBlock.
func TestReaderTelemetryCorruptFrame(t *testing.T) {
	// The sender samples every block, so healthy frames arrive annotated
	// and the receiver records a decode span for each.
	e := telemetryEngine(t, 4<<10, Telemetry{Tracer: tracing.New("send", 1, 0)})
	data := datagen.OISTransactions(20<<10, 0.9, 3)

	var wire bytes.Buffer
	var frameEnds []int
	w := NewWriter(&wire, e, func(BlockResult) { frameEnds = append(frameEnds, wire.Len()) })
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(frameEnds) < 3 {
		t.Fatalf("need >= 3 frames, got %d", len(frameEnds))
	}
	// Flip a payload byte inside the second frame.
	raw := wire.Bytes()
	raw[frameEnds[1]-5] ^= 0xFF

	reg := metrics.NewRegistry()
	tracer := tracing.New("test", 0, 0)
	r := NewReader(bytes.NewReader(raw), nil, func(info codec.BlockInfo) {
		if info.OrigLen == 0 {
			t.Error("onBlock observed an empty block")
		}
	})
	r.SetTelemetry(Telemetry{Metrics: reg, Tracer: tracer, Stream: "recv"})
	var handlerCalls int
	r.SetCorruptHandler(func(err error) bool {
		handlerCalls++
		return true
	})

	got, err := io.ReadAll(r)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if handlerCalls != 1 {
		t.Fatalf("corrupt handler ran %d times, want 1", handlerCalls)
	}
	if len(got) >= len(data) || len(got) == 0 {
		t.Fatalf("resync delivered %d bytes of %d; exactly one block should be missing", len(got), len(data))
	}

	snap := reg.Snapshot()
	if c := snap["ccx.rx_corrupt_frames"]; c != 1 {
		t.Errorf("rx_corrupt_frames = %v, want 1", c)
	}
	wantBlocks := float64(len(frameEnds) - 1)
	if b := snap["ccx.rx_blocks"]; b != wantBlocks {
		t.Errorf("rx_blocks = %v, want %v (one skipped)", b, wantBlocks)
	}
	if d := snap["ccx.decode_seconds.count"]; d != wantBlocks {
		t.Errorf("decode latency observations = %v, want %v", d, wantBlocks)
	}

	// One span per frame: a decode span for each healthy one, the always-on
	// resync for the damaged one.
	if n := len(tracer.Ring().Recent(0)); n != len(frameEnds) {
		t.Fatalf("ring has %d spans, want %d (healthy + corrupt)", n, len(frameEnds))
	}
	for _, sp := range stageSpans(tracer, tracing.StageDecode) {
		if sp.Method == "" || sp.Bytes == 0 || sp.Trace == 0 || sp.Stream != "recv" {
			t.Errorf("healthy decode span incomplete: %+v", sp)
		}
	}
	corrupt := stageSpans(tracer, tracing.StageResync)
	if len(corrupt) != 1 || !corrupt[0].Anomaly {
		t.Fatalf("ring has %d resync spans, want 1 always-on: %+v", len(corrupt), corrupt)
	}
	if corrupt[0].Seq != 2 {
		t.Errorf("resync span at frame %d, want 2 (the damaged frame)", corrupt[0].Seq)
	}
	if !strings.Contains(corrupt[0].Err, "checksum") {
		t.Errorf("resync span err = %q, want the checksum failure", corrupt[0].Err)
	}
}

// TestTelemetryOffCostsNothing pins the opt-out contract: a zero Telemetry
// leaves no instruments resolved and no tracer running.
func TestTelemetryOffCostsNothing(t *testing.T) {
	e := smallBlockEngine(t, 8<<10)
	if e.tx != nil {
		t.Fatal("instruments resolved without a registry")
	}
	if e.tel.enabled() {
		t.Fatal("zero telemetry reports enabled")
	}
	// ObserveBlock with telemetry off must be a no-op, not a panic.
	e.ObserveBlock(BlockResult{})
	var r Reader
	r.observeBlock(codec.BlockInfo{})
	r.observeCorrupt(io.ErrUnexpectedEOF)
}

func BenchmarkTransmitBlock(b *testing.B) {
	run := func(b *testing.B, tel Telemetry) {
		cfg := selector.DefaultConfig()
		cfg.BlockSize = 64 << 10
		e, err := NewEngine(Config{Selector: cfg, Telemetry: tel})
		if err != nil {
			b.Fatal(err)
		}
		s := NewSession(e)
		block := datagen.OISTransactions(64<<10, 0.9, 1)
		send := func(frame []byte) (dur time.Duration, _ error) { return time.Millisecond, nil }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.TransmitBlock(block, send); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("telemetry=off", func(b *testing.B) { run(b, Telemetry{}) })
	// telemetry=on is what -debug turns on: metrics plus a rate-0 tracer
	// (switches and anomalies only). The tracing variants sample on top, so
	// the deltas isolate what head-sampled spans add.
	b.Run("telemetry=on", func(b *testing.B) {
		run(b, Telemetry{Metrics: metrics.NewRegistry(), Stream: "bench", Tracer: tracing.New("bench", 0, 0)})
	})
	b.Run("tracing=1pct", func(b *testing.B) {
		run(b, Telemetry{Metrics: metrics.NewRegistry(), Stream: "bench", Tracer: tracing.New("bench", 0.01, 4096)})
	})
	b.Run("tracing=always", func(b *testing.B) {
		run(b, Telemetry{Metrics: metrics.NewRegistry(), Stream: "bench", Tracer: tracing.New("bench", 1, 4096)})
	})
}
