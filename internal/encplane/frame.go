package encplane

import (
	"sync/atomic"

	"ccx/internal/codec"
)

// Frame is one immutable encoded wire frame shared across subscriber
// queues. Because the broker stamps a channel's sequence number before
// fan-out, the complete frame — header, sequence, CRC, payload —
// is identical for every subscriber in a (channel, method) class, so one
// encode serves them all.
//
// Ownership is reference counted:
//
//   - the creator holds one reference, which keep either transfers to the
//     block's window entry or releases;
//   - every queue delivery holds one reference (Retain before handing the
//     frame to a subscriber, Release after the frame is written, dropped,
//     or the subscriber is torn down);
//   - the last Release returns the backing buffer to the plane's pool.
//
// Retain after the count reached zero, and Release past zero, panic: a
// use-after-release is a refcount accounting bug, never something to limp
// past.
type Frame struct {
	refs atomic.Int32
	bufp *[]byte // pooled backing array; b is its prefix
	b    []byte
	ch   *Channel

	seq    uint64
	method codec.Method // requested method (window lookup key); Info.Method is the wire truth
	info   codec.BlockInfo

	// waitSeen gates the queue-wait observation: the frame's time in queue
	// is attributed once per class (by the first dequeuer), not once per
	// subscriber, so latency histograms and byte gauges stay honest.
	waitSeen atomic.Bool
}

// Bytes returns the encoded frame. The slice is immutable and valid only
// while the caller holds a reference.
func (f *Frame) Bytes() []byte { return f.b }

// Len returns the wire size of the frame.
func (f *Frame) Len() int { return len(f.b) }

// Info returns the encode outcome (method after any expansion fallback,
// payload sizes, sequence).
func (f *Frame) Info() codec.BlockInfo { return f.info }

// RequestedMethod returns the method the frame was encoded for — its key in
// the window, before any expansion fallback. Consumers compare it against
// their own current selection to detect a migration that outran their queue
// backlog.
func (f *Frame) RequestedMethod() codec.Method { return f.method }

// FirstWait reports true exactly once across all holders — the first
// dequeuer observes the shared frame's queue wait on behalf of its class.
func (f *Frame) FirstWait() bool { return f.waitSeen.CompareAndSwap(false, true) }

// Retain adds a reference. The caller must already hold one.
func (f *Frame) Retain() {
	if f.refs.Add(1) <= 1 {
		panic("encplane: Retain on released frame")
	}
}

// Release drops one reference; the last one recycles the buffer.
func (f *Frame) Release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.ch.reclaim(f)
	case n < 0:
		panic("encplane: Release past zero")
	}
}

// newFrame wraps the encoded frame *bufp, a pooled buffer whose ownership
// the caller hands over. The returned frame holds one (creator) reference.
func (c *Channel) newFrame(bufp *[]byte, seq uint64, m codec.Method, info codec.BlockInfo) *Frame {
	f := &Frame{bufp: bufp, b: *bufp, ch: c, seq: seq, method: m, info: info}
	f.refs.Store(1)
	c.p.framesLive.Add(1)
	c.noteBytes(int64(len(f.b)))
	return f
}

// reclaim runs on the final Release: undo byte accounting, poison the
// frame, return the buffer to the pool.
func (c *Channel) reclaim(f *Frame) {
	c.p.framesLive.Add(-1)
	c.noteBytes(-int64(len(f.b)))
	bufp := f.bufp
	f.bufp, f.b = nil, nil // poison: Bytes after the last Release is empty
	if bufp != nil {
		c.p.bufs.Put(bufp)
	}
}

// noteBytes tracks the channel's live shared-frame bytes: each distinct
// (block, method) frame counts once, however many subscriber queues hold it.
func (c *Channel) noteBytes(delta int64) {
	n := c.liveBytes.Add(delta)
	c.queuedBytes.Set(n)
	c.queuedHWM.SetMax(n)
	c.p.liveBytes.Add(delta)
}
