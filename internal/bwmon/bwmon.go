// Package bwmon implements the paper's end-to-end throughput measurement:
// "continually measured is the speed with which compressed blocks are
// accepted by receivers, thereby assessing both current network bandwidth
// and receiver speed" (§2.5). The monitor observes per-block send times and
// maintains an exponentially weighted moving average of goodput, which the
// selector uses to predict the send time of the next block.
package bwmon

import (
	"sync"
	"time"
)

// DefaultAlpha is the EWMA weight of the newest observation. The paper
// reacts within one or two 128 KB blocks to load changes, which a weight
// around one half reproduces.
const DefaultAlpha = 0.5

// Monitor tracks end-to-end goodput. It is safe for concurrent use.
// The zero value is invalid; use New.
//
// Internally the EWMA runs over seconds-per-byte rather than bytes-per-
// second: block send times over TCP alternate between near-zero (the
// kernel buffer absorbed the write) and long stalls (backpressure), and an
// arithmetic mean of instantaneous rates would be dominated by the
// meaningless fast samples. Averaging per-byte time weights each sample by
// what it actually costs, so Goodput is a harmonic-style mean that tracks
// the real acceptance rate.
type Monitor struct {
	mu         sync.Mutex
	alpha      float64
	secPerByte float64 // EWMA; 0 until first observation
	observed   int64
}

// New returns a Monitor with the given EWMA weight (DefaultAlpha if
// alpha ≤ 0 or > 1).
func New(alpha float64) *Monitor {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &Monitor{alpha: alpha}
}

// Observe records that n bytes were accepted by the receiver in d.
// Non-positive durations and sizes are ignored.
func (m *Monitor) Observe(n int, d time.Duration) {
	if n <= 0 || d <= 0 {
		return
	}
	m.fold(d.Seconds() / float64(n))
}

// ObserveRate folds an externally measured goodput (bytes/s) into the EWMA.
// Receivers report their acceptance rate upstream through quality
// attributes; producers feed those reports here.
func (m *Monitor) ObserveRate(rate float64) {
	if rate <= 0 {
		return
	}
	m.fold(1 / rate)
}

// fold updates the per-byte-time EWMA.
func (m *Monitor) fold(spb float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.observed == 0 {
		m.secPerByte = spb
	} else {
		m.secPerByte = m.alpha*spb + (1-m.alpha)*m.secPerByte
	}
	m.observed++
}

// Goodput returns the smoothed end-to-end rate in bytes/s, or 0 before any
// observation.
func (m *Monitor) Goodput() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.secPerByte <= 0 {
		return 0
	}
	return 1 / m.secPerByte
}

// SendTime predicts how long n bytes will take at the current goodput.
// Before any observation it returns 0 — the paper's "assume the reducing
// size speed of first block is infinity" convention, which makes the
// selector send the first block uncompressed.
func (m *Monitor) SendTime(n int) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.secPerByte <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * m.secPerByte * float64(time.Second))
}
