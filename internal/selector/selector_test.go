package selector

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ccx/internal/codec"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.BlockSize != 128*1024 {
		t.Errorf("BlockSize = %d", c.BlockSize)
	}
	if c.SendVsReduce != 0.83 || c.StrongVsReduce != 3.48 || c.SampleCutoff != 0.4878 {
		t.Errorf("thresholds = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{BlockSize: 0, SendVsReduce: 1, StrongVsReduce: 2, SampleCutoff: 0.5},
		{BlockSize: 1, SendVsReduce: 0, StrongVsReduce: 2, SampleCutoff: 0.5},
		{BlockSize: 1, SendVsReduce: 3, StrongVsReduce: 2, SampleCutoff: 0.5},
		{BlockSize: 1, SendVsReduce: 1, StrongVsReduce: 2, SampleCutoff: 0},
		{BlockSize: 1, SendVsReduce: 1, StrongVsReduce: 2, SampleCutoff: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// base returns inputs for a compressible 128 KB block whose probe shrank to
// 30 % at 5 MB/s reducing speed → LZReduceTime ≈ 18.35 ms.
func base() Inputs {
	return Inputs{
		BlockLen:      128 * 1024,
		ProbeRatio:    0.30,
		ReducingSpeed: 5e6,
	}
}

func TestFirstBlockUncompressed(t *testing.T) {
	in := base()
	in.SendTime = 0 // no goodput measurement yet
	if d := DefaultConfig().Select(in); d.Method != codec.None {
		t.Fatalf("first block method = %v", d.Method)
	}
}

func TestFastLineNoCompression(t *testing.T) {
	in := base()
	// Send time well below 0.83 × reduce time.
	in.SendTime = time.Millisecond
	if d := DefaultConfig().Select(in); d.Method != codec.None {
		t.Fatalf("fast line method = %v", d.Method)
	}
}

func TestModerateLineLempelZiv(t *testing.T) {
	in := base()
	// Between 0.83× and 3.48× of reduce time (~18.35 ms): pick 30 ms.
	in.SendTime = 30 * time.Millisecond
	if d := DefaultConfig().Select(in); d.Method != codec.LempelZiv {
		t.Fatalf("moderate line method = %v", d.Method)
	}
}

func TestSlowLineBurrowsWheeler(t *testing.T) {
	in := base()
	in.SendTime = 200 * time.Millisecond // ≫ 3.48 × reduce
	if d := DefaultConfig().Select(in); d.Method != codec.BurrowsWheeler {
		t.Fatalf("slow line method = %v", d.Method)
	}
}

func TestPoorlyCompressibleHuffman(t *testing.T) {
	in := base()
	in.ProbeRatio = 0.85 // above the 48.78 % cutoff
	in.SendTime = 200 * time.Millisecond
	if d := DefaultConfig().Select(in); d.Method != codec.Huffman {
		t.Fatalf("low-repetition method = %v", d.Method)
	}
}

func TestIncompressibleStaysRaw(t *testing.T) {
	in := base()
	in.ProbeRatio = 1.0
	in.ReducingSpeed = 0
	in.SendTime = time.Hour
	if d := DefaultConfig().Select(in); d.Method != codec.None {
		t.Fatalf("incompressible method = %v", d.Method)
	}
}

func TestThresholdBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	in := base()
	reduce := in.LZReduceTime()
	// Exactly at 0.83×: not strictly greater → no compression.
	in.SendTime = time.Duration(0.83 * float64(reduce))
	if d := cfg.Select(in); d.Method != codec.None {
		t.Fatalf("at weak threshold: %v", d.Method)
	}
	// Just above: LZ.
	in.SendTime = time.Duration(0.84 * float64(reduce))
	if d := cfg.Select(in); d.Method != codec.LempelZiv {
		t.Fatalf("just above weak threshold: %v", d.Method)
	}
	// Just above strong threshold: BWT.
	in.SendTime = time.Duration(3.49 * float64(reduce))
	if d := cfg.Select(in); d.Method != codec.BurrowsWheeler {
		t.Fatalf("just above strong threshold: %v", d.Method)
	}
}

func TestLZReduceTime(t *testing.T) {
	in := Inputs{BlockLen: 1000, ProbeRatio: 0.5, ReducingSpeed: 500}
	// Expected reduction 500 bytes at 500 B/s → 1 s.
	if got := in.LZReduceTime(); got != time.Second {
		t.Fatalf("LZReduceTime = %v", got)
	}
	if (Inputs{BlockLen: 1000, ProbeRatio: 1.2, ReducingSpeed: 500}).LZReduceTime() != 0 {
		t.Fatal("expanding probe should yield 0")
	}
	if (Inputs{BlockLen: 1000, ProbeRatio: 0.5}).LZReduceTime() != 0 {
		t.Fatal("zero speed should yield 0")
	}
}

// TestMonotoneInSendTime is the core safety property: for fixed data
// characteristics, a slower line never selects a *weaker* method.
func TestMonotoneInSendTime(t *testing.T) {
	strength := map[codec.Method]int{
		codec.None: 0, codec.Huffman: 1, codec.LempelZiv: 2, codec.BurrowsWheeler: 3,
	}
	cfg := DefaultConfig()
	f := func(probePct uint8, speedKBs uint16) bool {
		in := base()
		in.ProbeRatio = float64(probePct%101) / 100
		in.ReducingSpeed = float64(speedKBs) * 1024
		prev := -1
		for _, st := range []time.Duration{
			0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
			80 * time.Millisecond, 300 * time.Millisecond, time.Second, time.Minute,
		} {
			in.SendTime = st
			d := cfg.Select(in)
			s := strength[d.Method]
			// Huffman and LZ/BWT are alternative branches, not a strength
			// ladder across the cutoff; monotonicity applies within the
			// reachable branch. With fixed ratio the branch is fixed, so
			// method strength must be non-decreasing in send time.
			if s < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionCarriesAudit(t *testing.T) {
	in := base()
	in.SendTime = 30 * time.Millisecond
	d := DefaultConfig().Select(in)
	if d.Inputs != in {
		t.Fatal("decision lost inputs")
	}
	if d.LZReduceTime != in.LZReduceTime() {
		t.Fatal("decision lost reduce time")
	}
}

// TestReasonMarksReusedProbe: a decision made from a carried-over probe says
// so, with its age, whatever branch fired — and a measured one does not.
func TestReasonMarksReusedProbe(t *testing.T) {
	cfg := DefaultConfig()
	in := Inputs{BlockLen: 16 << 10, SendTime: 10 * time.Microsecond, ProbeRatio: 0.3, ReducingSpeed: 20e6}
	if r := cfg.Select(in).Reason(); !strings.Contains(r, "line fast") || strings.Contains(r, "reused") {
		t.Fatalf("measured probe: %q", r)
	}
	in.ProbeAge = 12
	if r := cfg.Select(in).Reason(); !strings.Contains(r, "line fast") || !strings.HasSuffix(r, "probe reused, age 12") {
		t.Fatalf("reused probe: %q", r)
	}
	d := cfg.Select(in)
	d.Demoted, d.DemotedFrom, d.DemoteCause = true, d.Method, "cpu elevated"
	if r := d.Reason(); !strings.Contains(r, "probe reused, age 12; governor demoted") {
		t.Fatalf("reused and demoted: %q", r)
	}
}
