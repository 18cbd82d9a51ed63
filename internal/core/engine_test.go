package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/netsim"
	"ccx/internal/selector"
)

// virtualNow returns a deterministic clock advancing fixedStep per call.
func virtualNow(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineDefaults(t *testing.T) {
	e := newTestEngine(t, Config{})
	if e.BlockSize() != selector.DefaultBlockSize {
		t.Fatalf("BlockSize = %d", e.BlockSize())
	}
	if e.Registry() == nil || e.Monitor() == nil {
		t.Fatal("missing components")
	}
}

func TestNewEngineInvalidConfig(t *testing.T) {
	if _, err := NewEngine(Config{Selector: selector.Config{BlockSize: -1, SendVsReduce: 1, StrongVsReduce: 2, SampleCutoff: 0.5}}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFirstBlockUncompressed(t *testing.T) {
	e := newTestEngine(t, Config{})
	block := datagen.OISTransactions(128*1024, 0.9, 1)
	dec := e.Decide(block)
	if dec.Method != codec.None {
		t.Fatalf("first block = %v, want none (paper convention)", dec.Method)
	}
}

func TestDecideAfterSlowObservations(t *testing.T) {
	e := newTestEngine(t, Config{Now: virtualNow(time.Millisecond)})
	block := datagen.OISTransactions(128*1024, 0.9, 1)
	// Feed the monitor a slow line: 128 KB in 2 s ≈ 65 KB/s.
	e.Monitor().Observe(128*1024, 2*time.Second)
	dec := e.Decide(block)
	if dec.Method != codec.LempelZiv && dec.Method != codec.BurrowsWheeler {
		t.Fatalf("slow line on repetitive data = %v, want a dictionary method", dec.Method)
	}
}

func TestDecideFastLine(t *testing.T) {
	e := newTestEngine(t, Config{})
	block := datagen.OISTransactions(128*1024, 0.9, 1)
	// 1 GB/s: sending is far cheaper than compressing.
	e.Monitor().Observe(128*1024, 130*time.Microsecond)
	dec := e.Decide(block)
	if dec.Method != codec.None {
		t.Fatalf("fast line = %v, want none", dec.Method)
	}
}

func TestDecideIncompressibleData(t *testing.T) {
	e := newTestEngine(t, Config{})
	block := datagen.Random(128*1024, 2)
	e.Monitor().Observe(128*1024, 10*time.Second) // terrible line
	dec := e.Decide(block)
	if dec.Method != codec.None {
		t.Fatalf("random data = %v, want none", dec.Method)
	}
}

// fakeLimiter is a scripted MethodLimiter standing in for the overload
// governor.
type fakeLimiter struct {
	max     codec.Method
	cause   string
	on      bool
	demoted []codec.Method // NoteDemoted from-methods, in order
}

func (l *fakeLimiter) CapMethod() (codec.Method, string, bool) { return l.max, l.cause, l.on }
func (l *fakeLimiter) NoteDemoted(from, to codec.Method)       { l.demoted = append(l.demoted, from) }

func TestLimiterDemotesSelection(t *testing.T) {
	lim := &fakeLimiter{max: codec.Huffman, cause: "cpu critical", on: true}
	e := newTestEngine(t, Config{Now: virtualNow(time.Millisecond), Limiter: lim})
	block := datagen.OISTransactions(128*1024, 0.9, 1)
	e.Monitor().Observe(128*1024, 2*time.Second) // slow line: wants LZ/BWT
	dec := e.Decide(block)
	if dec.Method != codec.Huffman {
		t.Fatalf("capped decision = %v, want huffman", dec.Method)
	}
	if !dec.Demoted || dec.DemoteCause != "cpu critical" {
		t.Fatalf("demotion not recorded: %+v", dec)
	}
	if dec.DemotedFrom != codec.LempelZiv && dec.DemotedFrom != codec.BurrowsWheeler {
		t.Fatalf("DemotedFrom = %v, want a dictionary method", dec.DemotedFrom)
	}
	if len(lim.demoted) != 1 || lim.demoted[0] != dec.DemotedFrom {
		t.Fatalf("NoteDemoted calls = %v", lim.demoted)
	}
	reason := dec.Reason()
	for _, want := range []string{"governor demoted", "cpu critical"} {
		if !strings.Contains(reason, want) {
			t.Fatalf("Reason %q missing %q", reason, want)
		}
	}
}

func TestLimiterLeavesCompliantSelectionAlone(t *testing.T) {
	// Cap at the top of the ladder: nothing the selector picks outranks it.
	lim := &fakeLimiter{max: codec.BurrowsWheeler, cause: "cpu elevated", on: true}
	e := newTestEngine(t, Config{Now: virtualNow(time.Millisecond), Limiter: lim})
	block := datagen.OISTransactions(128*1024, 0.9, 1)
	e.Monitor().Observe(128*1024, 2*time.Second)
	if dec := e.Decide(block); dec.Demoted || len(lim.demoted) != 0 {
		t.Fatalf("decision under a non-binding cap was demoted: %+v", dec)
	}
	// Inactive limiter (ok=false): even a tight cap is ignored.
	lim2 := &fakeLimiter{max: codec.None, cause: "cpu critical", on: false}
	e2 := newTestEngine(t, Config{Now: virtualNow(time.Millisecond), Limiter: lim2})
	e2.Monitor().Observe(128*1024, 2*time.Second)
	if dec := e2.Decide(block); dec.Demoted || dec.Method == codec.None {
		t.Fatalf("inactive limiter interfered: %+v", dec)
	}
	// A None selection is never "demoted" — there is nothing cheaper.
	lim3 := &fakeLimiter{max: codec.None, cause: "cpu critical", on: true}
	e3 := newTestEngine(t, Config{Limiter: lim3})
	fast := datagen.Random(128*1024, 2)
	e3.Monitor().Observe(128*1024, 10*time.Second)
	if dec := e3.Decide(fast); dec.Method != codec.None || dec.Demoted {
		t.Fatalf("incompressible block under cap: %+v", dec)
	}
}

// linkSend adapts a netsim link to SendFunc.
func linkSend(link *netsim.Link) SendFunc {
	return func(frame []byte) (time.Duration, error) {
		return link.Send(len(frame)), nil
	}
}

func TestSessionStreamOverSimulatedSlowLink(t *testing.T) {
	clk := netsim.NewVirtual()
	e := newTestEngine(t, Config{Now: virtualNow(100 * time.Microsecond)})
	link := netsim.NewLink(netsim.Slow1M, clk, 7)
	data := datagen.OISTransactions(1<<20, 0.9, 3)

	s := NewSession(e)
	results, err := s.Stream(data, linkSend(link), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d blocks", len(results))
	}
	if results[0].Decision.Method != codec.None {
		t.Fatalf("block 0 method = %v", results[0].Decision.Method)
	}
	// After the first observation the slow link must trigger compression.
	compressed := 0
	var wire int
	for _, r := range results {
		wire += r.WireBytes
		if r.Decision.Method != codec.None {
			compressed++
		}
	}
	if compressed < 6 {
		t.Fatalf("only %d of %d blocks compressed on a 1 MBit link", compressed, len(results))
	}
	if wire >= len(data) {
		t.Fatalf("no net reduction: %d wire bytes for %d data bytes", wire, len(data))
	}
}

// paperCPU scales the probe's reducing speed down to the paper's Figure 4
// regime (≈2-3 MB/s for Lempel-Ziv on the Sun-Fire): with the 100 µs
// virtual probe tick, a 4 KB OIS sample reduces ≈2.9 KB → ≈29 MB/s raw, so
// a scale of 12 lands at ≈2.4 MB/s.
const paperCPU = 12

func TestSessionStreamFastLinkStaysRaw(t *testing.T) {
	clk := netsim.NewVirtual()
	e := newTestEngine(t, Config{Now: virtualNow(100 * time.Microsecond), SpeedScale: paperCPU})
	link := netsim.NewLink(netsim.Gigabit, clk, 7)
	data := datagen.OISTransactions(1<<20, 0.9, 3)
	s := NewSession(e)
	results, err := s.Stream(data, linkSend(link), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Decision.Method != codec.None {
			t.Fatalf("block %d compressed (%v) on a gigabit link", r.Index, r.Decision.Method)
		}
	}
}

func TestSessionRoundtripDecodable(t *testing.T) {
	// Whatever the engine sends must decode back to the original stream.
	clk := netsim.NewVirtual()
	e := newTestEngine(t, Config{Now: virtualNow(50 * time.Microsecond)})
	link := netsim.NewLink(netsim.Slow1M, clk, 9)
	data := datagen.OISTransactions(512*1024, 0.8, 5)

	var wire bytes.Buffer
	send := func(frame []byte) (time.Duration, error) {
		wire.Write(frame)
		return link.Send(len(frame)), nil
	}
	s := NewSession(e)
	if _, err := s.Stream(data, send, nil); err != nil {
		t.Fatal(err)
	}
	fr := codec.NewFrameReader(&wire, nil)
	var got bytes.Buffer
	for got.Len() < len(data) {
		block, _, err := fr.ReadBlock()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(block)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("stream did not roundtrip")
	}
}

func TestSessionOnBlockCallback(t *testing.T) {
	clk := netsim.NewVirtual()
	e := newTestEngine(t, Config{})
	link := netsim.NewLink(netsim.Fast100, clk, 1)
	var seen []int
	s := NewSession(e)
	_, err := s.Stream(datagen.OISTransactions(300*1024, 0.9, 1), linkSend(link), func(r BlockResult) {
		seen = append(seen, r.Index)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("callback indices = %v", seen)
	}
}

// TestAdaptationUnderLoadSwing reproduces the Figure 8 dynamic in miniature:
// unloaded → raw; loaded → dictionary method; unloaded again → raw.
func TestAdaptationUnderLoadSwing(t *testing.T) {
	clk := netsim.NewVirtual()
	e := newTestEngine(t, Config{Now: virtualNow(100 * time.Microsecond), SpeedScale: paperCPU})
	link := netsim.NewLink(netsim.Fast100, clk, 3)
	loaded := false
	link.SetLoad(func(time.Time) float64 {
		if loaded {
			return 0.97
		}
		return 0
	})
	data := datagen.OISTransactions(e.BlockSize()*4, 0.9, 1)
	blocks := make([][]byte, 0, 18)
	for i := 0; i < 18; i++ {
		blocks = append(blocks, data[(i%4)*e.BlockSize():(i%4+1)*e.BlockSize()])
	}
	s := NewSession(e)
	var methods []codec.Method
	phase := 0
	_, err := s.StreamBlocks(blocks, func(frame []byte) (time.Duration, error) {
		d := link.Send(len(frame))
		phase++
		if phase == 4 {
			loaded = true // load arrives mid-stream
		}
		if phase == 8 {
			loaded = false
		}
		return d, nil
	}, func(r BlockResult) {
		methods = append(methods, r.Decision.Method)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 (blocks 0-3): mostly raw. Phase 2 (5-8ish): compressed.
	if methods[1] != codec.None {
		t.Fatalf("unloaded phase compressed: %v", methods)
	}
	sawCompressed := false
	for _, m := range methods[5:9] {
		if m == codec.LempelZiv || m == codec.BurrowsWheeler {
			sawCompressed = true
		}
	}
	if !sawCompressed {
		t.Fatalf("loaded phase never compressed: %v", methods)
	}
	// Recovery: the tail returns to raw once load clears.
	if methods[len(methods)-1] != codec.None {
		t.Fatalf("did not recover to raw: %v", methods)
	}
}
