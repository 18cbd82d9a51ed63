package netutil

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: time.Second}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second, // stays capped
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("attempt %d: got %v want %v", i, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("after Reset: got %v", got)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	if got := b.Next(); got != DefaultBackoffMin {
		t.Fatalf("first default delay = %v", got)
	}
	for i := 0; i < 20; i++ {
		if got := b.Next(); got > DefaultBackoffMax {
			t.Fatalf("delay %v exceeds cap %v", got, DefaultBackoffMax)
		}
	}
}

func TestBackoffMinAboveMax(t *testing.T) {
	b := Backoff{Min: time.Minute, Max: time.Second}
	if got := b.Next(); got != time.Second {
		t.Fatalf("got %v want the cap", got)
	}
}

func TestBackoffFullJitterDeterministic(t *testing.T) {
	mk := func() *Backoff {
		return &Backoff{
			Min:    100 * time.Millisecond,
			Max:    time.Second,
			Jitter: true,
			Rand:   rand.New(rand.NewSource(42)),
		}
	}
	// Same seed → same schedule.
	a, b := mk(), mk()
	for i := 0; i < 8; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("attempt %d: seeded runs diverged: %v vs %v", i, da, db)
		}
	}
	// Full jitter: every draw lands in [0, unjittered delay], and the draws
	// are not all equal to the deterministic schedule.
	c, plain := mk(), &Backoff{Min: 100 * time.Millisecond, Max: time.Second}
	jittered := false
	for i := 0; i < 32; i++ {
		d, ceil := c.Next(), plain.Next()
		if d < 0 || d > ceil {
			t.Fatalf("attempt %d: jittered delay %v outside [0, %v]", i, d, ceil)
		}
		if d != ceil {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("32 seeded draws all equal the unjittered schedule")
	}
}

func TestBackoffRetryAfterOverride(t *testing.T) {
	b := &Backoff{Min: 100 * time.Millisecond, Max: time.Second}
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("first delay = %v", got)
	}
	b.SetRetryAfter(3 * time.Second)
	if got := b.Next(); got != 3*time.Second {
		t.Fatalf("override delay = %v, want the server's 3s", got)
	}
	// The override did not advance the schedule: the exponential sequence
	// resumes where it left off.
	if got := b.Next(); got != 200*time.Millisecond {
		t.Fatalf("post-override delay = %v, want 200ms", got)
	}
	// Overrides are one-shot and jitter-exempt even with Jitter set.
	b.Jitter = true
	b.Rand = rand.New(rand.NewSource(1))
	b.SetRetryAfter(5 * time.Second)
	if got := b.Next(); got != 5*time.Second {
		t.Fatalf("jittered override = %v, want exactly 5s", got)
	}
	// Negative clamps to zero (retry immediately).
	b.SetRetryAfter(-time.Second)
	if got := b.Next(); got != 0 {
		t.Fatalf("negative override = %v, want 0", got)
	}
	// Reset drops a pending override.
	b.SetRetryAfter(time.Hour)
	b.Reset()
	b.Jitter = false
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("after Reset: got %v, want Min", got)
	}
}
