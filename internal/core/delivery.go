package core

import "sync"

// DeliveryTracker enforces exactly-once, in-order delivery over sequenced
// frame streams (codec frames carrying per-channel sequence numbers). It survives reconnects: a Reader consults it per block, and the
// resume handshake consults it for the last contiguously delivered
// sequence to present to the broker.
//
// The model is a cursor, not a window: the broker replays from the ring in
// order and TCP preserves ordering within a connection, so a block is
// either the next expected sequence (deliver), at or below the cursor (a
// replayed duplicate — drop), or ahead of the cursor (everything between
// is lost — deliver and account the gap explicitly).
//
// All methods are safe for concurrent use, though a single Reader is the
// typical caller.
type DeliveryTracker struct {
	mu      sync.Mutex
	started bool
	last    uint64 // highest sequence delivered; all ≤ last are settled

	delivered uint64
	dups      uint64
	gapEvents uint64
	gapBlocks uint64
}

// DeliveryStats is a point-in-time snapshot of a tracker's accounting.
type DeliveryStats struct {
	// Delivered counts blocks passed through to the consumer.
	Delivered uint64
	// Dups counts replayed or repeated blocks that were suppressed.
	Dups uint64
	// GapEvents counts discontinuities observed (however many blocks each
	// spanned); GapBlocks counts the blocks known lost across all of them.
	GapEvents uint64
	GapBlocks uint64
	// Last is the highest delivered sequence; Started reports whether any
	// sequenced block has been seen at all.
	Last    uint64
	Started bool
}

// Observe decides the fate of one received block with sequence seq:
// deliver reports whether the consumer should see it (false = duplicate),
// and gap is the number of blocks that are now known lost immediately
// before it (0 on a contiguous stream).
func (t *DeliveryTracker) Observe(seq uint64) (deliver bool, gap uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started && seq <= t.last {
		t.dups++
		return false, 0
	}
	if t.started && seq > t.last+1 {
		gap = seq - t.last - 1
	} else if !t.started && seq > 1 {
		// A fresh subscriber's first block legitimately starts mid-stream
		// (it joined live); that is a join point, not a loss. Gaps before
		// the first block are reported only via NoteGap (the resume
		// handshake's explicit verdict).
		gap = 0
	}
	if gap > 0 {
		t.gapEvents++
		t.gapBlocks += gap
	}
	t.started = true
	t.last = seq
	t.delivered++
	return true, gap
}

// NoteGap records blocks reported lost out-of-band — the broker's resume
// reply saying the replay window no longer reaches the resume point.
func (t *DeliveryTracker) NoteGap(blocks uint64) {
	if blocks == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gapEvents++
	t.gapBlocks += blocks
}

// SkipTo advances the cursor past a gap the transport has already
// surfaced, so the next delivered block (first-1 … onward) is not
// double-counted as a second discontinuity. It never rewinds.
func (t *DeliveryTracker) SkipTo(first uint64) {
	if first == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started || first-1 > t.last {
		t.started = true
		t.last = first - 1
	}
}

// LastDelivered returns the last contiguously delivered sequence number
// and whether any sequenced block has been delivered yet — exactly the
// state a resume handshake presents.
func (t *DeliveryTracker) LastDelivered() (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last, t.started
}

// Stats snapshots the tracker's accounting.
func (t *DeliveryTracker) Stats() DeliveryStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return DeliveryStats{
		Delivered: t.delivered,
		Dups:      t.dups,
		GapEvents: t.gapEvents,
		GapBlocks: t.gapBlocks,
		Last:      t.last,
		Started:   t.started,
	}
}
