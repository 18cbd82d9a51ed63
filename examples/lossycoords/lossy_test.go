package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/echo"
	"ccx/internal/pbio"
)

func packFloats(vs []float64) []byte {
	out := make([]byte, 0, len(vs)*8)
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func unpackFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := NewFloat64Quantizer(codec.Huffman, 0.1); err == nil {
		t.Fatal("built-in id accepted")
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewFloat64Quantizer(codec.FirstCustom, bad); err == nil {
			t.Fatalf("step %v accepted", bad)
		}
	}
	q, err := NewFloat64Quantizer(codec.FirstCustom, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if q.Method() != codec.FirstCustom || q.Step() != 0.25 {
		t.Fatal("accessors broken")
	}
}

func TestToleranceBound(t *testing.T) {
	const step = 1e-3
	q, err := NewFloat64Quantizer(codec.FirstCustom, step)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	src := packFloats(vals)
	comp, err := q.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := q.Decompress(comp, len(src))
	if err != nil {
		t.Fatal(err)
	}
	got := unpackFloats(back)
	for i, v := range vals {
		if d := math.Abs(got[i] - v); d > step/2+math.Abs(v)*1e-12 {
			t.Fatalf("index %d: error %v exceeds step/2", i, d)
		}
	}
}

func TestIdempotent(t *testing.T) {
	// Quantize(quantize(x)) == quantize(x): a second pass is lossless.
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 0.01)
	vals := []float64{1.234567, -9.87654, 0, 42}
	src := packFloats(vals)
	c1, err := q.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := q.Decompress(c1, len(src))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := q.Compress(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := q.Decompress(c2, len(d1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("second quantization pass changed data")
	}
}

func TestBeatsLosslessOnCoordinates(t *testing.T) {
	// The motivating case: MD coordinates are nearly incompressible
	// losslessly (Figure 6) but collapse under application-chosen
	// tolerance.
	atoms := datagen.Molecular(20000, 6)
	_, _, coords, err := datagen.MolecularColumns(atoms)
	if err != nil {
		t.Fatal(err)
	}
	lossless, err := codec.Compress(codec.BurrowsWheeler, coords)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 1e-4) // 0.1 mÅ grid
	lossyOut, err := q.Compress(coords)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("coords: %d bytes, lossless BWT %d (%.1f%%), lossy %d (%.1f%%)",
		len(coords), len(lossless), 100*float64(len(lossless))/float64(len(coords)),
		len(lossyOut), 100*float64(len(lossyOut))/float64(len(coords)))
	if len(lossyOut) >= len(lossless)/2 {
		t.Fatalf("lossy (%d) should compress at least 2x better than lossless (%d)",
			len(lossyOut), len(lossless))
	}
}

func TestTailBytes(t *testing.T) {
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 0.5)
	src := append(packFloats([]float64{1, 2, 3}), 0xAA, 0xBB, 0xCC)
	comp, err := q.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := q.Decompress(comp, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[len(back)-3:], []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatal("tail bytes lost")
	}
}

func TestEmpty(t *testing.T) {
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 0.5)
	out, err := q.Compress(nil)
	if err != nil || out != nil {
		t.Fatalf("got %v %v", out, err)
	}
	back, err := q.Decompress(nil, 0)
	if err != nil || back != nil {
		t.Fatalf("got %v %v", back, err)
	}
}

func TestRejectsNonFinite(t *testing.T) {
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 0.5)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if _, err := q.Compress(packFloats([]float64{v})); err == nil {
			t.Fatalf("value %v accepted", v)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 0.5)
	src := packFloats([]float64{1, 2, 3, 4})
	comp, _ := q.Compress(src)
	if _, err := q.Decompress(comp[:2], len(src)); err == nil {
		t.Fatal("truncation accepted")
	}
	if _, err := q.Decompress([]byte{0xFF, 0xFF, 0xFF}, 32); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong origLen inconsistent with tail.
	if _, err := q.Decompress(comp, len(src)+3); err == nil {
		t.Fatal("inconsistent length accepted")
	}
}

func TestQuickToleranceProperty(t *testing.T) {
	q, _ := NewFloat64Quantizer(codec.FirstCustom, 0.01)
	f := func(raw []int32) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 1000
		}
		src := packFloats(vals)
		comp, err := q.Compress(src)
		if err != nil {
			return false
		}
		back, err := q.Decompress(comp, len(src))
		if err != nil {
			return false
		}
		got := unpackFloats(back)
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > 0.005+math.Abs(vals[i])*1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeDeploymentThroughMiddleware is the full §5 story: a lossy,
// application-specific codec registered at runtime, deployed as a derived
// channel handler, decoded transparently by the consumer.
func TestRuntimeDeploymentThroughMiddleware(t *testing.T) {
	const step = 1e-3
	q, err := NewFloat64Quantizer(codec.FirstCustom, step)
	if err != nil {
		t.Fatal(err)
	}
	reg := codec.NewRegistry()
	reg.Register(q)

	engine, err := core.NewEngine(core.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	_ = engine // the lossy path below frames blocks directly with the registry

	domain := echo.NewDomain()
	src := domain.OpenChannel("md.coords")
	// Handler: frame every event with the lossy method (the application
	// knows its tolerance; the adaptive selector governs lossless methods).
	derived, err := src.Derive("md.coords.lossy", func(ev echo.Event) (echo.Event, bool) {
		var buf bytes.Buffer
		fw := codec.NewFrameWriter(&buf, reg)
		if _, err := fw.WriteBlock(q.Method(), ev.Data); err != nil {
			return echo.Event{}, false
		}
		return echo.Event{Data: append([]byte(nil), buf.Bytes()...), Attrs: ev.Attrs}, true
	})
	if err != nil {
		t.Fatal(err)
	}

	atoms := datagen.Molecular(2000, 8)
	batch, err := datagen.MolecularBatch(atoms)
	if err != nil {
		t.Fatal(err)
	}
	f := datagen.MolecularFormat()
	coords, err := pbio.ExtractColumn(batch, f, f.FieldIndex("coordinates"))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wireLen int
	derived.Subscribe(func(ev echo.Event) {
		defer close(done)
		wireLen = len(ev.Data)
		data, info, err := codec.NewFrameReader(bytes.NewReader(ev.Data), reg).ReadBlock()
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		if info.Method != q.Method() {
			t.Errorf("method = %v", info.Method)
		}
		got := unpackFloats(data)
		want := unpackFloats(coords)
		for i := range want {
			if math.Abs(got[i]-want[i]) > step/2+1e-12 {
				t.Errorf("coord %d off by %v", i, math.Abs(got[i]-want[i]))
				return
			}
		}
	})
	if err := src.Submit(echo.Event{Data: coords}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("event never delivered")
	}
	if wireLen >= len(coords)/2 {
		t.Fatalf("lossy channel shipped %d of %d bytes", wireLen, len(coords))
	}
}
