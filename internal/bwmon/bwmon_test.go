package bwmon

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestFirstObservationSetsGoodput(t *testing.T) {
	m := New(0.5)
	m.Observe(1000, time.Second)
	if g := m.Goodput(); g != 1000 {
		t.Fatalf("goodput = %v", g)
	}
}

func TestEWMASmoothing(t *testing.T) {
	m := New(0.5)
	m.Observe(1000, time.Second) // 1000 B/s → 1e-3 s/B
	m.Observe(3000, time.Second) // 3000 B/s → 1/3e-3 s/B
	// EWMA runs over seconds-per-byte: 0.5/3000 + 0.5/1000 = 1/1500.
	if g := m.Goodput(); math.Abs(g-1500) > 1e-9 {
		t.Fatalf("goodput = %v want 1500", g)
	}
}

func TestAlphaClamp(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5} {
		m := New(bad)
		m.Observe(100, time.Second)
		m.Observe(300, time.Second)
		want := 1 / (DefaultAlpha/300 + (1-DefaultAlpha)/100)
		if g := m.Goodput(); math.Abs(g-want) > 1e-9 {
			t.Fatalf("alpha=%v: goodput = %v want %v", bad, g, want)
		}
	}
}

// TestStallWeighting is the property that motivated the per-byte-time EWMA:
// alternating buffer-absorbed (near-instant) and stalled sends must yield a
// goodput near the stalled rate, not near the meaningless fast one.
func TestStallWeighting(t *testing.T) {
	m := New(DefaultAlpha)
	for i := 0; i < 20; i++ {
		m.Observe(64*1024, 50*time.Microsecond) // absorbed by kernel buffer
		m.Observe(64*1024, 40*time.Millisecond) // real backpressure stall
	}
	g := m.Goodput()
	stallRate := float64(64*1024) / 0.040
	if g > 4*stallRate {
		t.Fatalf("goodput %v ignores stalls (stall rate %v)", g, stallRate)
	}
}

func TestSendTimePrediction(t *testing.T) {
	m := New(1)
	if d := m.SendTime(100); d != 0 {
		t.Fatalf("pre-observation SendTime = %v, want 0 (first block convention)", d)
	}
	m.Observe(1_000_000, time.Second)
	if d := m.SendTime(500_000); math.Abs(d.Seconds()-0.5) > 1e-9 {
		t.Fatalf("SendTime = %v want 0.5s", d)
	}
	if d := m.SendTime(0); d != 0 {
		t.Fatalf("SendTime(0) = %v", d)
	}
}

func TestIgnoresInvalidObservations(t *testing.T) {
	m := New(0.5)
	m.Observe(0, time.Second)
	m.Observe(100, 0)
	m.Observe(-5, time.Second)
	if m.Goodput() != 0 || m.SendTime(100) != 0 {
		t.Fatal("invalid observations were counted")
	}
	// The first valid observation still seeds the average outright.
	m.Observe(1000, time.Second)
	if g := m.Goodput(); g != 1000 {
		t.Fatalf("goodput = %v after invalid observations", g)
	}
}

func TestTracksLoadSwing(t *testing.T) {
	// Goodput must chase a rate drop within a few blocks (the behaviour the
	// paper's adaptation loop depends on).
	m := New(DefaultAlpha)
	for i := 0; i < 10; i++ {
		m.Observe(128*1024, 20*time.Millisecond) // ≈6.5 MB/s
	}
	fast := m.Goodput()
	for i := 0; i < 4; i++ {
		m.Observe(128*1024, 400*time.Millisecond) // ≈0.33 MB/s
	}
	slow := m.Goodput()
	if slow > fast/8 {
		t.Fatalf("EWMA too sluggish: %v → %v", fast, slow)
	}
}

func TestConcurrentUse(t *testing.T) {
	m := New(0.5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Observe(1000, time.Millisecond)
				_ = m.Goodput()
				_ = m.SendTime(5000)
			}
		}()
	}
	wg.Wait()
	// Every observation is 1000 B/ms, so any interleaving averages to 1 MB/s.
	if g := m.Goodput(); math.Abs(g-1e6) > 1e-3 {
		t.Fatalf("goodput = %v, want 1e6", g)
	}
}
