package experiments

import (
	"bytes"
	"testing"
	"time"

	"ccx/internal/codec"
)

func repetitive(n int) []byte {
	motif := []byte("calibration sample: repetitive transaction record; ")
	return bytes.Repeat(motif, n/len(motif)+1)[:n]
}

func TestMeasureBasic(t *testing.T) {
	var c Calibrator
	res, err := c.Measure(codec.LempelZiv, repetitive(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.InLen != 64*1024 || res.OutLen <= 0 || res.OutLen >= res.InLen {
		t.Fatalf("sizes: %+v", res)
	}
	if res.ReducingSpeed <= 0 {
		t.Fatal("expected positive reducing speed on compressible data")
	}
	if res.Ratio <= 0 || res.Ratio >= 1 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
	if res.CompressTime <= 0 || res.DecompressTime <= 0 {
		t.Fatalf("times: %+v", res)
	}
}

// measureAll measures every listed method over data.
func measureAll(t *testing.T, c *Calibrator, methods []codec.Method, data []byte) map[codec.Method]Measurement {
	t.Helper()
	out := make(map[codec.Method]Measurement, len(methods))
	for _, m := range methods {
		res, err := c.Measure(m, data)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		out[m] = res
	}
	return out
}

func TestMeasureAllAndLatest(t *testing.T) {
	var c Calibrator
	methods := []codec.Method{codec.Huffman, codec.LempelZiv, codec.BurrowsWheeler, codec.Arithmetic}
	measureAll(t, &c, methods, repetitive(32*1024))
	for _, m := range methods {
		latest, ok := c.Latest(m)
		if !ok || latest.Method != m {
			t.Fatalf("Latest(%v) missing", m)
		}
		if c.ReducingSpeed(m) != latest.ReducingSpeed {
			t.Fatalf("ReducingSpeed(%v) mismatch", m)
		}
	}
	if c.ReducingSpeed(codec.None) != 0 {
		t.Fatal("unmeasured method should report 0")
	}
}

// TestFigure4Ordering checks the paper's headline microbenchmark shape:
// Huffman reduces fastest... actually per Figure 4, Lempel-Ziv and Huffman
// both far outpace Burrows-Wheeler; BWT is the slowest reducer.
func TestFigure4Ordering(t *testing.T) {
	var c Calibrator
	data := repetitive(256 * 1024)
	res := measureAll(t, &c, []codec.Method{codec.Huffman, codec.LempelZiv, codec.BurrowsWheeler}, data)
	lzSpeed := res[codec.LempelZiv].ReducingSpeed
	bwtSpeed := res[codec.BurrowsWheeler].ReducingSpeed
	if bwtSpeed >= lzSpeed {
		t.Fatalf("BWT reducing speed (%.0f) should be below LZ (%.0f)", bwtSpeed, lzSpeed)
	}
	if res[codec.BurrowsWheeler].CompressTime <= res[codec.Huffman].CompressTime {
		t.Fatal("BWT should take longer to compress than Huffman")
	}
}

func TestSpeedScaleEmulatesSlowCPU(t *testing.T) {
	// With a virtual clock both calibrators see identical raw timings, so
	// the scale factor is exactly observable.
	mkNow := func() func() time.Time {
		tick := time.Unix(0, 0)
		return func() time.Time {
			tick = tick.Add(50 * time.Millisecond)
			return tick
		}
	}
	data := repetitive(64 * 1024)
	fast := Calibrator{Now: mkNow()}
	slow := Calibrator{Now: mkNow(), SpeedScale: 2}
	rf, err := fast.Measure(codec.LempelZiv, data)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := slow.Measure(codec.LempelZiv, data)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CompressTime != 2*rf.CompressTime {
		t.Fatalf("scaled compress time %v, want 2×%v", rs.CompressTime, rf.CompressTime)
	}
	if diff := rs.ReducingSpeed*2 - rf.ReducingSpeed; diff > 1 || diff < -1 {
		t.Fatalf("scaled speed %v, want half of %v", rs.ReducingSpeed, rf.ReducingSpeed)
	}
}

func TestMeasureIncompressible(t *testing.T) {
	var c Calibrator
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i*7 + i>>3)
	}
	res, err := c.Measure(codec.Huffman, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutLen < res.InLen && res.ReducingSpeed == 0 {
		t.Fatal("compressible sample should have speed")
	}
	// Either way, never negative.
	if res.ReducingSpeed < 0 {
		t.Fatal("negative reducing speed")
	}
}

func TestMeasureUnknownMethod(t *testing.T) {
	var c Calibrator
	if _, err := c.Measure(codec.Method(250), []byte("x")); err == nil {
		t.Fatal("expected error")
	}
}

func TestCustomRegistry(t *testing.T) {
	reg := codec.NewRegistry()
	c := Calibrator{Registry: reg}
	if _, err := c.Measure(codec.Huffman, repetitive(1024)); err != nil {
		t.Fatal(err)
	}
	// Arithmetic is the reproduction's to register: a bare registry lacks it.
	if _, err := c.Measure(codec.Arithmetic, repetitive(1024)); err == nil {
		t.Fatal("arithmetic measured from the built-in registry")
	}
}
