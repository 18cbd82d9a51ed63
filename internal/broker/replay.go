package broker

import "ccx/internal/encplane"

// replayRing assigns a channel's monotonically increasing block sequence
// numbers and retains the most recent blocks for resume replay, bounded by
// block count and total payload bytes. The zero value stamps sequence
// numbers but retains nothing (replay disabled); setBounds enables
// retention. All methods require the owning channelState's lock.
type replayRing struct {
	maxBlocks int
	maxBytes  int64
	// baseBlocks/baseBytes remember the configured bounds so pressure
	// scaling (setPressure) is reversible; zero means setBounds was never
	// called with retention enabled.
	baseBlocks int
	baseBytes  int64

	entries []encplane.Block // FIFO window; entries[head:] are live
	head    int              // index of the oldest live entry
	bytes   int64            // sum of live entry payload sizes
	last    uint64           // most recently assigned sequence number (0 = none yet)
}

// setBounds configures retention. Non-positive bounds disable replay.
func (r *replayRing) setBounds(blocks int, bytes int64) {
	r.maxBlocks, r.maxBytes = blocks, bytes
	r.baseBlocks, r.baseBytes = blocks, bytes
}

// Pressure floors: however hard the governor squeezes, a ring that had
// replay enabled keeps a minimal resume window so short-lived pressure
// doesn't turn every reconnect into a gap.
const (
	ringFloorBlocks = 16
	ringFloorBytes  = 1 << 20
)

// setPressure rescales the retention bounds to the configured values times
// factor (clamped to the floors above; factor 1 restores them exactly) and
// evicts immediately to fit. Returns what the shrink discarded. No-op on a
// ring without replay enabled.
func (r *replayRing) setPressure(factor float64) (evictedBlocks int, evictedBytes int64) {
	if r.baseBlocks <= 0 || r.baseBytes <= 0 {
		return 0, 0
	}
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	blocks := int(float64(r.baseBlocks) * factor)
	bytes := int64(float64(r.baseBytes) * factor)
	if blocks < ringFloorBlocks {
		blocks = ringFloorBlocks
	}
	if blocks > r.baseBlocks {
		blocks = r.baseBlocks
	}
	if bytes < ringFloorBytes {
		bytes = ringFloorBytes
	}
	if bytes > r.baseBytes {
		bytes = r.baseBytes
	}
	r.maxBlocks, r.maxBytes = blocks, bytes
	return r.evictTo(blocks, bytes)
}

// enabled reports whether the ring retains blocks at all.
func (r *replayRing) enabled() bool { return r.maxBlocks > 0 && r.maxBytes > 0 }

// stamp assigns the next sequence number to b, retains it when replay is
// enabled, and reports what eviction had to discard to stay within bounds.
// Sequence numbers start at 1. A retained block keeps its annotation and
// probe, so a replayed block keeps its trace context and is decided from
// the same sample as its live deliveries.
func (r *replayRing) stamp(b encplane.Block) (seq uint64, evictedBlocks int, evictedBytes int64) {
	r.last++
	seq = r.last
	if !r.enabled() || int64(len(b.Data)) > r.maxBytes {
		// A block that alone exceeds the byte budget would evict the whole
		// window and still not fit; it is sent live but never retained, which
		// shows up as an immediate eviction.
		if r.enabled() {
			evictedBlocks, evictedBytes = r.evictTo(r.maxBlocks, r.maxBytes)
			evictedBlocks++ // the unretained block itself
		}
		return seq, evictedBlocks, evictedBytes
	}
	b.Seq = seq
	r.entries = append(r.entries, b)
	r.bytes += int64(len(b.Data))
	evictedBlocks, evictedBytes = r.evictTo(r.maxBlocks, r.maxBytes)
	return seq, evictedBlocks, evictedBytes
}

// evictTo discards oldest entries until the window fits the given bounds.
func (r *replayRing) evictTo(maxBlocks int, maxBytes int64) (blocks int, bytes int64) {
	for r.len() > 0 && (r.len() > maxBlocks || r.bytes > maxBytes) {
		e := &r.entries[r.head]
		r.bytes -= int64(len(e.Data))
		blocks++
		bytes += int64(len(e.Data))
		e.Data = nil // release the payload even while the slot lingers
		r.head++
	}
	// Compact once the dead prefix dominates, so the backing array's size
	// stays proportional to the live window.
	if r.head > len(r.entries)/2 && r.head > 32 {
		n := copy(r.entries, r.entries[r.head:])
		r.entries = r.entries[:n]
		r.head = 0
	}
	return blocks, bytes
}

// len reports the number of live entries.
func (r *replayRing) len() int { return len(r.entries) - r.head }

// lastSeq returns the most recently assigned sequence number (0 before the
// first block).
func (r *replayRing) lastSeq() uint64 { return r.last }

// replayFrom resolves a resume request: the client has delivered everything
// through lastSeq and wants lastSeq+1 onward. It returns the retained
// entries to replay (oldest first, possibly empty) and the sequence number
// of the first block the session will deliver — replayed or live. A
// firstSeq beyond lastSeq+1 means the window was evicted past the resume
// point: the difference is an explicit gap the caller must surface.
func (r *replayRing) replayFrom(lastSeq uint64) (replay []encplane.Block, firstSeq uint64) {
	// A client claiming more than the channel ever published (absurd or
	// corrupted resume state) is treated as fully caught up: nothing to
	// replay, the next live block is firstSeq.
	if lastSeq >= r.last {
		return nil, r.last + 1
	}
	want := lastSeq + 1
	if r.len() == 0 || r.entries[len(r.entries)-1].Seq < want {
		// Nothing retained at or past the resume point. Everything in
		// (lastSeq, nextSeq] — if anything — is gone.
		return nil, r.last + 1
	}
	start := r.head
	for start < len(r.entries) && r.entries[start].Seq < want {
		start++
	}
	live := r.entries[start:]
	replay = make([]encplane.Block, len(live))
	copy(replay, live)
	return replay, live[0].Seq
}
