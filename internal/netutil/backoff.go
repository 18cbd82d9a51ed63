package netutil

import (
	"math/rand"
	"time"
)

// Backoff default bounds.
const (
	DefaultBackoffMin = 200 * time.Millisecond
	DefaultBackoffMax = 15 * time.Second
)

// Backoff produces capped exponential delays for reconnect loops: Min,
// 2·Min, 4·Min, … clamped to Max. With Jitter set, each delay is drawn
// uniformly from [0, d] ("full jitter"), which decorrelates a thundering
// herd of evicted or refused clients all reconnecting to the same broker;
// without it the schedule is deterministic so chaos-test schedules
// reproduce exactly. The zero value uses the defaults above, unjittered.
// Not safe for concurrent use; one Backoff per reconnect loop.
type Backoff struct {
	// Min is the first delay (DefaultBackoffMin if 0).
	Min time.Duration
	// Max caps the delay (DefaultBackoffMax if 0).
	Max time.Duration
	// Jitter draws each delay uniformly from [0, d] instead of d.
	Jitter bool
	// Rand is the jitter source; nil lazily seeds one from the clock.
	// Inject a seeded source for deterministic tests.
	Rand *rand.Rand

	attempts   int
	retryAfter time.Duration // one-shot server override, consumed by Next
	hasRetry   bool
}

// Next returns the delay to sleep before the next attempt and advances the
// schedule. A pending SetRetryAfter override is returned verbatim instead
// (no jitter, schedule not advanced): the server said when, so that is
// when.
func (b *Backoff) Next() time.Duration {
	if b.hasRetry {
		b.hasRetry = false
		return b.retryAfter
	}
	min, max := b.Min, b.Max
	if min <= 0 {
		min = DefaultBackoffMin
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if min > max {
		min = max
	}
	d := min
	for i := 0; i < b.attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b.attempts++
	if b.Jitter {
		if b.Rand == nil {
			b.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		d = time.Duration(b.Rand.Int63n(int64(d) + 1))
	}
	return d
}

// SetRetryAfter installs a one-shot override honored by the next Next call:
// the broker's RETRY-AFTER handshake reply knows the server's recovery
// horizon better than any client-side schedule. Negative is clamped to
// zero; the exponential sequence continues unadvanced afterwards.
func (b *Backoff) SetRetryAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.retryAfter = d
	b.hasRetry = true
}

// Reset restarts the schedule at Min and drops any pending RetryAfter;
// call it after a healthy connection so the next outage starts with a
// short retry again.
func (b *Backoff) Reset() {
	b.attempts = 0
	b.hasRetry = false
}
