package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-10) // ignored: counters only move forward
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestEWMASeedAndSmooth(t *testing.T) {
	e := EWMA{alpha: 0.5}
	if e.Value() != 0 {
		t.Fatalf("zero EWMA should read 0")
	}
	e.Observe(4) // seeds
	e.Observe(8) // 0.5*8 + 0.5*4 = 6
	if got := e.Value(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("ewma = %v, want 6", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	r.Counter("a").Add(5)
	r.Gauge("g").Set(-2)
	r.EWMA("e", 0).Observe(1.5)
	snap := r.Snapshot()
	if snap["a"] != 5 || snap["g"] != -2 || snap["e"] != 1.5 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits").Inc()
				r.Gauge("depth").Set(int64(j))
				r.EWMA("ratio", 0.3).Observe(0.5)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(3)
	r.EWMA("r", 0).Observe(0.25)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if decoded["n"] != 3 || decoded["r"] != 0.25 {
		t.Fatalf("decoded = %v", decoded)
	}
}
