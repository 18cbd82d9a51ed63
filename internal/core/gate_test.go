package core

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// The gate tests run on a virtual clock that advances gateTick per reading,
// so every probe takes exactly gateTick: the Lempel-Ziv floor is gateTick per
// 4 KB sample and the gate holds for a gateBlock-byte block while its
// predicted send time is below gateBreakEven/gateMargin.
const (
	gateBlock     = 16 << 10
	gateTick      = 100 * time.Microsecond
	gateBreakEven = time.Duration(selector.DefaultSendVsReduce * float64(gateTick) * gateBlock / 4096)
)

// lockedNow is virtualNow for engines whose workers read the clock
// concurrently.
func lockedNow(step time.Duration) func() time.Time {
	var mu sync.Mutex
	now := virtualNow(step)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now()
	}
}

func gateEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cfg.Selector = selector.DefaultConfig()
	cfg.Selector.BlockSize = gateBlock
	if cfg.Now == nil {
		cfg.Now = lockedNow(gateTick)
	}
	return newTestEngine(t, cfg)
}

// gateBlocks cuts n blocks out of a short compressible corpus, looped.
func gateBlocks(n int) [][]byte {
	corpus := datagen.OISTransactions(8*gateBlock, 0.9, 21)
	blocks := make([][]byte, n)
	for i := range blocks {
		off := (i % 8) * gateBlock
		blocks[i] = corpus[off : off+gateBlock]
	}
	return blocks
}

// checkReuseMarks asserts the two marks of a reused probe agree on every
// decision: an age says it was carried over, a probe time says it was taken.
func checkReuseMarks(t *testing.T, i int, d selector.Decision) (reused bool) {
	t.Helper()
	in := d.Inputs
	if (in.ProbeAge > 0) != (in.ProbeTime == 0) {
		t.Fatalf("block %d: probe age %d with probe time %v", i, in.ProbeAge, in.ProbeTime)
	}
	return in.ProbeAge > 0
}

// wrappedPolicy is what a timing or logging wrapper looks like to the
// engine: another concrete type with only Name and Select.
type wrappedPolicy struct{ inner selector.Policy }

func (p wrappedPolicy) Name() string                                { return p.inner.Name() }
func (p wrappedPolicy) Select(in selector.Inputs) selector.Decision { return p.inner.Select(in) }

// everyBlockPolicy is RatioPolicy opted out of reuse — the ungated engine the
// gated one is compared with.
type everyBlockPolicy struct{ selector.RatioPolicy }

func (everyBlockPolicy) SamplesEveryBlock() bool { return true }

// TestGateSteadyFastLine streams over a line that takes 1 µs per frame: the
// sequential loop and the worker pool, which take their probes the same way,
// must both measure only now and then, send everything raw, and mark exactly
// the reused decisions. A policy wrapped in another type is gated just the
// same.
func TestGateSteadyFastLine(t *testing.T) {
	const n = 1024
	blocks := gateBlocks(n)
	fastSend := func([]byte) (time.Duration, error) { return time.Microsecond, nil }
	sel := selector.DefaultConfig()
	sel.BlockSize = gateBlock
	ratio := selector.RatioPolicy{Config: sel}
	for _, tc := range []struct {
		name    string
		workers int
		policy  selector.Policy
	}{
		{"sequential", 1, nil},
		{"workers=4", 4, nil},
		{"wrapped/sequential", 1, wrappedPolicy{ratio}},
		{"wrapped/workers=4", 4, wrappedPolicy{ratio}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := gateEngine(t, Config{Workers: tc.workers, Policy: tc.policy})
			results, err := NewSession(e).StreamBlocks(blocks, fastSend, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != n {
				t.Fatalf("%d results, want %d", len(results), n)
			}
			probedLate := 0
			for i, r := range results {
				if r.Decision.Method != codec.None {
					t.Fatalf("block %d sent %v on a fast line", i, r.Decision.Method)
				}
				reused := checkReuseMarks(t, i, r.Decision)
				// The newest power of two at or below a block's ordinal was
				// measured, so a reused probe is less than half the ordinal
				// old. Concurrent workers decide a few more blocks from the
				// old probe while the next measurement runs; the pipeline
				// depth (2×workers in the order queue, a block per worker and
				// one in the sequencer) bounds how many.
				if max := (i+1)/2 + 4*tc.workers; r.Decision.Inputs.ProbeAge >= max {
					t.Fatalf("block %d: probe age %d, bound %d", i, r.Decision.Inputs.ProbeAge, max)
				}
				if i >= 8 && !reused {
					probedLate++
				}
			}
			if limit := (n - 8) / 32; probedLate > limit {
				t.Fatalf("%d of the last %d blocks were probed, want at most %d", probedLate, n-8, limit)
			}
			if probedLate == 0 {
				t.Fatal("no block after the first 8 was ever re-measured")
			}
		})
	}
}

// TestGateMeasuresPowersOfTwo counts the probes of a long stream over a
// 1 µs line: the gate measures the blocks whose ordinal is a power of two
// (13 of 4096) and, besides those, only blocks decided before the first
// goodput sample. The sequential loop has two of those, ordinals 1 and 2;
// the worker pool at most the blocks in flight before the first send, and
// none after the ramp.
func TestGateMeasuresPowersOfTwo(t *testing.T) {
	const n = 4096
	pow := bits.Len(n) // the powers of two 1, 2, 4, …, n
	blocks := gateBlocks(n)
	fastSend := func([]byte) (time.Duration, error) { return time.Microsecond, nil }
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := metrics.NewRegistry()
			e := gateEngine(t, Config{Workers: workers, Telemetry: Telemetry{Metrics: reg}})
			results, err := NewSession(e).StreamBlocks(blocks, fastSend, nil)
			if err != nil {
				t.Fatal(err)
			}
			measured, afterRamp := 0, 0
			for i, r := range results {
				if checkReuseMarks(t, i, r.Decision) {
					continue
				}
				measured++
				// Ordinal 64 is decided within the pipeline's depth of block
				// index 63, so past index 96 only 128, 256, …, n remain.
				if i >= 96 {
					afterRamp++
				}
			}
			snap := reg.Snapshot()
			if got := snap["ccx.tx_probes_measured"]; got != float64(measured) {
				t.Fatalf("tx_probes_measured = %v, decisions say %d", got, measured)
			}
			if got := snap["ccx.tx_probes_reused"]; got != float64(n-measured) {
				t.Fatalf("tx_probes_reused = %v, want %d", got, n-measured)
			}
			early := 0 // blocks in flight before the first goodput sample
			if workers > 1 {
				early = 4 * workers
			}
			if measured < pow || measured > pow+early {
				t.Fatalf("%d of %d blocks measured, want %d powers of two plus at most %d decided before the first goodput sample",
					measured, n, pow, early)
			}
			if want := pow - 7; afterRamp != want {
				t.Fatalf("%d blocks measured past the ramp, want %d (ordinals 128 … %d)", afterRamp, want, n)
			}
		})
	}
}

// TestGateBreaksOnSlowingLine feeds the monitor slow samples in the middle of
// a fast stream: the very next Decide must measure, and must decide what an
// engine that probes every block decides from the same inputs — after 40
// fast blocks and after 10,000, whose remembered probe is thousands of
// blocks old.
func TestGateBreaksOnSlowingLine(t *testing.T) {
	for _, fast := range []int{40, 10000} {
		t.Run(fmt.Sprintf("after=%d", fast), func(t *testing.T) {
			gated := gateEngine(t, Config{Now: virtualNow(gateTick)})
			ungated := gateEngine(t, Config{
				Now:    virtualNow(gateTick),
				Policy: everyBlockPolicy{selector.RatioPolicy{Config: gated.sel}},
			})
			blocks := gateBlocks(8)
			decideBoth := func(i int) (g, u selector.Decision) {
				b := blocks[i%len(blocks)]
				return gated.Decide(b), ungated.Decide(b)
			}
			observeBoth := func(d time.Duration) {
				gated.Monitor().Observe(gateBlock, d)
				ungated.Monitor().Observe(gateBlock, d)
			}

			observeBoth(time.Microsecond)
			reused := 0
			for i := 0; i < fast; i++ {
				// The ungated engine keeps no state but its monitor, so
				// comparing the first blocks with it is enough (and keeps
				// 10,000 probes out of the race build).
				if i >= 64 {
					if g := gated.Decide(blocks[i%len(blocks)]); g.Method != codec.None {
						t.Fatalf("block %d sent %v on a fast line", i, g.Method)
					} else if checkReuseMarks(t, i, g) {
						reused++
					}
					continue
				}
				g, u := decideBoth(i)
				if checkReuseMarks(t, i, g) {
					reused++
				}
				if checkReuseMarks(t, i, u) {
					t.Fatalf("block %d: the opted-out engine reused a probe", i)
				}
				if g.Method != u.Method {
					t.Fatalf("block %d: gated %v, ungated %v", i, g.Method, u.Method)
				}
			}
			// Every ordinal but the powers of two reuses the probe.
			if want := fast - bits.Len(uint(fast)); reused != want {
				t.Fatalf("%d of %d fast-line decisions reused the probe, want %d", reused, fast, want)
			}

			for i := 0; i < 6; i++ {
				observeBoth(200 * time.Millisecond) // the EWMA is now far past the break-even
			}
			for i := fast; i < fast+8; i++ {
				g, u := decideBoth(i)
				if checkReuseMarks(t, i, g) {
					t.Fatalf("block %d: reused a probe on a slow line", i)
				}
				if g != u {
					t.Fatalf("block %d on the slowed line:\n gated   %+v\n ungated %+v", i, g, u)
				}
				if g.Method == codec.None {
					t.Fatalf("block %d stayed raw on a slow line: %s", i, g.Reason())
				}
			}
		})
	}
}

// coldNow is a virtual clock whose first probe takes 16 ticks and every
// later one a single tick: a cold first measurement (page faults, a cold
// cache) that overstates the Lempel-Ziv time per byte sixteenfold. A probe
// reads the clock twice, so the second reading is the slow one.
func coldNow() func() time.Time {
	t, reads := time.Unix(0, 0), 0
	return func() time.Time {
		reads++
		step := gateTick
		if reads == 2 {
			step = 16 * gateTick
		}
		t = t.Add(step)
		return t
	}
}

// TestGateColdFirstProbe: a line that outruns the codec only against a cold
// first probe cannot open the gate for good. Block 2's probe lowers the
// floor, the margin stops holding, and from then on every block is measured
// and decided as an engine that probes every block decides it.
func TestGateColdFirstProbe(t *testing.T) {
	gated := gateEngine(t, Config{Now: coldNow()})
	ungated := gateEngine(t, Config{
		Now:    coldNow(),
		Policy: everyBlockPolicy{selector.RatioPolicy{Config: gated.sel}},
	})
	// Four times under the cold floor's gate, four times over the warm one's.
	for _, e := range []*Engine{gated, ungated} {
		e.Monitor().Observe(gateBlock, gateBreakEven)
	}
	for i, b := range gateBlocks(200) {
		g, u := gated.Decide(b), ungated.Decide(b)
		if checkReuseMarks(t, i, g) {
			t.Fatalf("block %d reused a probe: %s", i, g.Reason())
		}
		if g != u {
			t.Fatalf("block %d:\n gated   %+v\n ungated %+v", i, g, u)
		}
	}
}

// TestGateNeverHolds covers the three ways the fast-line test must fail
// closed: no goodput sample, a send time inside the margin (raw is still the
// answer, but a sample could change it), and a SpeedScale that moves the
// Lempel-Ziv floor under the same line.
func TestGateNeverHolds(t *testing.T) {
	blocks := gateBlocks(40)
	for _, tc := range []struct {
		name  string
		send  time.Duration // per block, 0 = never observed
		scale float64
	}{
		{"no goodput yet", 0, 0},
		{"inside the margin", gateBreakEven / 2, 0},
		{"floor moved by SpeedScale", gateBreakEven / 8, 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := gateEngine(t, Config{Now: virtualNow(gateTick), SpeedScale: tc.scale})
			if tc.send > 0 {
				e.Monitor().Observe(gateBlock, tc.send)
			}
			for i, b := range blocks {
				if checkReuseMarks(t, i, e.Decide(b)) {
					t.Fatalf("block %d reused a probe", i)
				}
			}
		})
	}
	// The control: the third line at native speed is comfortably gated.
	e := gateEngine(t, Config{Now: virtualNow(gateTick)})
	e.Monitor().Observe(gateBlock, gateBreakEven/8)
	reused := 0
	for i, b := range blocks {
		if checkReuseMarks(t, i, e.Decide(b)) {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("control: the same line at native speed never reused a probe")
	}
}

// TestGateOptOut: a policy that reads each block's own sample gets one.
func TestGateOptOut(t *testing.T) {
	sel := selector.DefaultConfig()
	sel.BlockSize = gateBlock
	for _, p := range []selector.Policy{selector.CharacteristicPolicy{Config: sel}, spreadPolicy{}} {
		t.Run(p.Name(), func(t *testing.T) {
			e := gateEngine(t, Config{Now: virtualNow(gateTick), Policy: p})
			e.Monitor().Observe(gateBlock, time.Microsecond)
			for i, b := range gateBlocks(40) {
				if checkReuseMarks(t, i, e.Decide(b)) {
					t.Fatalf("block %d: %s was handed a reused probe", i, p.Name())
				}
			}
		})
	}
}

// TestGateKeepsPlacement: a reused probe still goes through DecideProbed, so
// auto placement on a fast line offloads gated blocks exactly like measured
// ones.
func TestGateKeepsPlacement(t *testing.T) {
	e := gateEngine(t, Config{
		Now:       virtualNow(gateTick),
		Placement: selector.PlacementPolicy{Mode: selector.PlacementAuto, Brokered: true},
	})
	e.Monitor().Observe(gateBlock, time.Microsecond)
	reused := 0
	for i, b := range gateBlocks(40) {
		d := e.Decide(b)
		if !d.Offloaded || d.Placement != selector.PlacementBroker || d.Method != codec.None {
			t.Fatalf("block %d (probe age %d): offloaded=%v placement=%v method=%v",
				i, d.Inputs.ProbeAge, d.Offloaded, d.Placement, d.Method)
		}
		if checkReuseMarks(t, i, d) {
			reused++
			if want := fmt.Sprintf("probe reused, age %d", d.Inputs.ProbeAge); !strings.Contains(d.Reason(), want) {
				t.Fatalf("block %d reason %q lacks %q", i, d.Reason(), want)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no decision reused a probe")
	}
}

// TestGateTelemetry: a reused probe must not look measured — the decide
// span carries its age and says so, the two counters split the blocks, and
// a sampled block records no zero-length probe span.
func TestGateTelemetry(t *testing.T) {
	const n = 64
	reg := metrics.NewRegistry()
	tracer := tracing.New("test", 1, 8*n)
	e := gateEngine(t, Config{
		Now:       virtualNow(gateTick),
		Telemetry: Telemetry{Metrics: reg, Tracer: tracer, Stream: "send"},
	})
	fastSend := func([]byte) (time.Duration, error) { return time.Microsecond, nil }
	if _, err := NewSession(e).StreamBlocks(gateBlocks(n), fastSend, nil); err != nil {
		t.Fatal(err)
	}

	decides := stageSpans(tracer, tracing.StageDecide)
	if len(decides) != n {
		t.Fatalf("%d decide spans for %d sampled blocks", len(decides), n)
	}
	reused := 0
	for _, sp := range decides {
		d := sp.Decision
		said := strings.Contains(d.Reason, fmt.Sprintf("probe reused, age %d", d.ProbeAge))
		if (d.ProbeAge > 0) != said {
			t.Fatalf("block %d: probe_age %d, reason %q", sp.Seq, d.ProbeAge, d.Reason)
		}
		if d.ProbeAge > 0 {
			reused++
		}
	}
	snap := reg.Snapshot()
	if got := snap["ccx.tx_probes_reused"]; got != float64(reused) || reused == 0 {
		t.Fatalf("tx_probes_reused = %v, decide spans say %d", got, reused)
	}
	if got := snap["ccx.tx_probes_measured"]; got != float64(n-reused) {
		t.Fatalf("tx_probes_measured = %v, want %d", got, n-reused)
	}
	probeSpans := 0
	for _, s := range tracer.Ring().Recent(0) {
		if s.Stage != tracing.StageProbe {
			continue
		}
		probeSpans++
		if s.Dur <= 0 {
			t.Fatalf("zero-length probe span recorded: %+v", s)
		}
	}
	if probeSpans != n-reused {
		t.Fatalf("%d probe spans for %d measured blocks", probeSpans, n-reused)
	}
}

// TestFastPathAllocs is the send side's ceiling while the line outruns the
// codec: encoding a raw block from a reused probe into a warm frame buffer
// allocates nothing.
func TestFastPathAllocs(t *testing.T) {
	e := gateEngine(t, Config{Now: virtualNow(gateTick)})
	e.Monitor().Observe(gateBlock, time.Microsecond)
	blocks := gateBlocks(8)
	frame := make([]byte, 0, gateBlock+64)
	var res BlockResult
	i, reused := 0, 0
	for n := 0; n < 256; n++ {
		allocs := testing.AllocsPerRun(1, func() {
			job := Job{Block: blocks[i%len(blocks)]}
			i++
			if _, err := e.Encode(frame, &job, &res); err != nil {
				t.Fatal(err)
			}
		})
		if res.Decision.Method != codec.None {
			t.Fatalf("encode %d chose %v on a fast line", i, res.Decision.Method)
		}
		if res.Decision.Inputs.ProbeAge == 0 {
			continue // a measured block pays for its probe
		}
		reused++
		if allocs != 0 {
			t.Fatalf("encode %d (probe age %d) allocated %v times", i, res.Decision.Inputs.ProbeAge, allocs)
		}
	}
	if reused < 200 {
		t.Fatalf("only %d of 256 checked encodes reused a probe", reused)
	}
}

// TestWriterSequentialAllocs is the same ceiling through a one-worker Writer:
// once TransmitBlock returns, the block has been sent, so the Writer fills
// the same buffer again instead of allocating a block-sized one per block.
func TestWriterSequentialAllocs(t *testing.T) {
	e := gateEngine(t, Config{Now: virtualNow(gateTick), Workers: 1})
	var res BlockResult
	w := NewWriter(io.Discard, e, func(r BlockResult) { res = r })
	blocks := gateBlocks(8)
	var before, after runtime.MemStats
	var allocated uint64
	reused := 0
	for i := 0; i < 256; i++ {
		runtime.ReadMemStats(&before)
		if _, err := w.Write(blocks[i%len(blocks)]); err != nil { // exactly one block
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.Index != i || res.Info.Method != codec.None {
			t.Fatalf("write %d sent block %d as %v, want block %d raw", i, res.Index, res.Info.Method, i)
		}
		if res.Decision.Inputs.ProbeAge == 0 {
			continue // a measured block pays for its probe
		}
		reused++
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	if reused < 200 {
		t.Fatalf("only %d of 256 blocks reused a probe", reused)
	}
	if b := allocated / uint64(reused); b >= 1<<10 {
		t.Fatalf("%d bytes allocated per raw %d-byte block, want < 1024", b, gateBlock)
	}
}

// TestWriterPipelinedAllocs is the ceiling through a two-worker Writer. A
// block handed to the pipeline stays the pipeline's until its frame is sent;
// the sink then puts the buffer back on the Writer's free list, so once the
// list is warm the Writer refills recycled buffers instead of allocating a
// block-sized one per block.
func TestWriterPipelinedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled frame buffers at random")
	}
	const warm, n = 64, 512
	e := gateEngine(t, Config{Workers: 2})
	e.Monitor().Observe(gateBlock, time.Microsecond)
	w := NewWriter(io.Discard, e, nil)
	blocks := gateBlocks(8)
	for i := 0; i < warm; i++ {
		if _, err := w.Write(blocks[i%len(blocks)]); err != nil {
			t.Fatal(err)
		}
	}
	// From here on every decision reuses the remembered probe: what a
	// measured one allocates is the sampler's, not the Writer's. The gate
	// measures power-of-two ordinals, so move the count where the next n
	// blocks hold none.
	e.gate.mu.Lock()
	e.gate.seen = 1 << 40
	e.gate.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := w.Write(blocks[i%len(blocks)]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per raw %d-byte block", b, gateBlock)
	if b >= 1<<10 {
		t.Fatalf("%d bytes allocated per raw %d-byte block, want < 1024", b, gateBlock)
	}
}
