package sampling

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"ccx/internal/datagen"
)

func TestEntropyBounds(t *testing.T) {
	if Entropy(nil) != 0 {
		t.Fatal("empty entropy != 0")
	}
	if h := Entropy(bytes.Repeat([]byte{7}, 1000)); h != 0 {
		t.Fatalf("constant data entropy = %v", h)
	}
	// Uniform over 256 values → 8 bits/byte.
	data := make([]byte, 256*64)
	for i := range data {
		data[i] = byte(i)
	}
	if h := Entropy(data); math.Abs(h-8) > 1e-9 {
		t.Fatalf("uniform entropy = %v want 8", h)
	}
	// Two equiprobable symbols → 1 bit/byte.
	ab := bytes.Repeat([]byte{'a', 'b'}, 500)
	if h := Entropy(ab); math.Abs(h-1) > 1e-9 {
		t.Fatalf("binary entropy = %v want 1", h)
	}
}

func TestRepetitionScore(t *testing.T) {
	if RepetitionScore([]byte("abc")) != 0 {
		t.Fatal("short input should score 0")
	}
	rep := RepetitionScore(bytes.Repeat([]byte("the same phrase over and over. "), 100))
	if rep < 0.9 {
		t.Fatalf("repetitive score = %.3f, want > 0.9", rep)
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	if r := RepetitionScore(random); r > 0.05 {
		t.Fatalf("random score = %.3f, want ≈ 0", r)
	}
}

// repetitionScoreMap is the map-backed RepetitionScore the open-addressing
// table replaced, kept as the reference the table must match bit for bit.
func repetitionScoreMap(data []byte) float64 {
	if len(data) < 8 {
		return 0
	}
	seen := make(map[uint32]struct{}, len(data))
	repeats := 0
	total := len(data) - 3
	for i := 0; i < total; i++ {
		g := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		if _, ok := seen[g]; ok {
			repeats++
		} else {
			seen[g] = struct{}{}
		}
	}
	return float64(repeats) / float64(total)
}

func TestRepetitionScoreMatchesMapReference(t *testing.T) {
	const max = 20000 // past the on-stack table: the heap fallback is covered too
	random := make([]byte, max)
	rand.New(rand.NewSource(3)).Read(random)
	sources := map[string][]byte{
		"random":    random,
		"all-equal": bytes.Repeat([]byte{0x5a}, max),
		"all-zero":  make([]byte, max), // the gram the table cannot store
		"ois":       datagen.OISTransactions(max, 0.9, 5),
		"xml":       datagen.XMLDocuments(max, 5),
	}
	for name, src := range sources {
		for _, n := range []int{0, 7, 8, 9, 4095, 4096, 4097, max} {
			got, want := RepetitionScore(src[:n]), repetitionScoreMap(src[:n])
			if got != want {
				t.Errorf("%s[:%d]: score %v, map reference %v", name, n, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { RepetitionScore(random[:DefaultProbeSize]) }); n != 0 {
		t.Errorf("RepetitionScore of a default-size sample allocates %v times", n)
	}
}

func TestProbeCompressible(t *testing.T) {
	var s Sampler
	block := bytes.Repeat([]byte("probe sample data; "), 1000)
	res := s.Probe(block)
	if res.SampleLen != DefaultProbeSize {
		t.Fatalf("SampleLen = %d", res.SampleLen)
	}
	if res.Ratio > 0.3 {
		t.Fatalf("repetitive probe ratio = %.3f", res.Ratio)
	}
	if res.ReducingSpeed <= 0 {
		t.Fatal("expected positive reducing speed")
	}
	if res.Repetition < 0.5 {
		t.Fatalf("repetition = %.3f", res.Repetition)
	}
}

func TestProbeIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, 8192)
	rng.Read(block)
	var s Sampler
	res := s.Probe(block)
	if res.Ratio < 0.99 {
		t.Fatalf("random probe ratio = %.3f", res.Ratio)
	}
	if res.ReducingSpeed != 0 {
		t.Fatalf("reducing speed on incompressible data = %v", res.ReducingSpeed)
	}
}

func TestProbeShortBlock(t *testing.T) {
	var s Sampler
	res := s.Probe([]byte("tiny"))
	if res.SampleLen != 4 {
		t.Fatalf("SampleLen = %d", res.SampleLen)
	}
}

func TestProbeEmpty(t *testing.T) {
	var s Sampler
	res := s.Probe(nil)
	if res.Ratio != 1 || res.SampleLen != 0 {
		t.Fatalf("empty probe: %+v", res)
	}
}

func TestProbeCustomSize(t *testing.T) {
	s := Sampler{ProbeSize: 128}
	res := s.Probe(bytes.Repeat([]byte{1}, 4096))
	if res.SampleLen != 128 {
		t.Fatalf("SampleLen = %d", res.SampleLen)
	}
}

func TestProbeVirtualClock(t *testing.T) {
	// A virtual clock makes reducing speed fully deterministic.
	tick := time.Unix(0, 0)
	s := Sampler{
		Now: func() time.Time {
			tick = tick.Add(10 * time.Millisecond)
			return tick
		},
	}
	block := bytes.Repeat([]byte("deterministic timing sample; "), 500)
	res := s.Probe(block)
	if res.Duration != 10*time.Millisecond {
		t.Fatalf("Duration = %v", res.Duration)
	}
	wantSpeed := float64(res.SampleLen-res.CompressedLen) / 0.01
	if math.Abs(res.ReducingSpeed-wantSpeed) > 1e-6 {
		t.Fatalf("ReducingSpeed = %v want %v", res.ReducingSpeed, wantSpeed)
	}
}

func TestProbeSpeedScale(t *testing.T) {
	tickA := time.Unix(0, 0)
	base := Sampler{Now: func() time.Time { tickA = tickA.Add(time.Millisecond); return tickA }}
	tickB := time.Unix(0, 0)
	slow := Sampler{
		Now:        func() time.Time { tickB = tickB.Add(time.Millisecond); return tickB },
		SpeedScale: 4,
	}
	block := bytes.Repeat([]byte("scaled speed sample; "), 1000)
	rBase := base.Probe(block)
	rSlow := slow.Probe(block)
	if math.Abs(rSlow.ReducingSpeed*4-rBase.ReducingSpeed) > 1e-6 {
		t.Fatalf("SpeedScale not applied: %v vs %v", rSlow.ReducingSpeed, rBase.ReducingSpeed)
	}
}
