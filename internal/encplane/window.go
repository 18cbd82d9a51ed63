package encplane

import "ccx/internal/codec"

// Default window bounds: what a zero bound in Config means.
const (
	DefaultWindowBlocks = 256
	DefaultWindowBytes  = 8 << 20
)

// Pressure floors: however hard the governor squeezes, a window keeps a
// minimal resume span so short-lived pressure doesn't turn every reconnect
// into a gap.
const (
	windowFloorBlocks = 16
	windowFloorBytes  = 1 << 20
)

// window is a channel's one retention window: its most recent blocks, each
// with the frames encoded from it, at most one per method. Resumes replay
// from it, and an on-demand encode (a replay or a migrated dequeue) looks
// in it before it encodes. It is bounded by block count and raw payload
// bytes; frames ride with their block and leave with it (under memory
// pressure none are kept). The live entries hold one contiguous run of
// sequence numbers, so a sequence number finds its entry by subtraction.
// Guarded by Channel.mu.
type window struct {
	maxBlocks int
	maxBytes  int64
	// baseBlocks/baseBytes are the configured bounds, which scale restores.
	baseBlocks int
	baseBytes  int64

	entries []entry // FIFO; entries[head:] are live
	head    int     // index of the oldest live entry
	bytes   int64   // sum of live entry payload sizes
	last    uint64  // sequence number of the most recent push (0 = none yet)
	// pressed is set while memory pressure scales the bounds down: the
	// window then keeps no frames, which can be encoded again, and spends
	// its shrunken byte bound on blocks, which cannot.
	pressed bool

	// What evictions discarded since the channel last took it: the frames
	// are released, and the counts reported, outside the lock.
	drop       []*Frame
	dropBlocks int
	dropBytes  int64
}

// entry is one retained block and the window's references to its frames.
type entry struct {
	Block
	frames []*Frame
}

// push retains b as the newest entry and evicts to fit. After the first
// push, each must carry the next sequence number, so the live entries stay
// one run; push refuses a block out of turn. A block that alone exceeds the
// byte bound restarts the window: it is delivered live but never retained,
// and counts as evicted itself.
func (w *window) push(b Block) bool {
	if w.last != 0 && b.Seq != w.last+1 {
		return false
	}
	w.last = b.Seq
	if int64(len(b.Data)) > w.maxBytes {
		w.evictTo(0, 0)
		w.dropBlocks++
		return true
	}
	w.entries = append(w.entries, entry{Block: b})
	w.bytes += int64(len(b.Data))
	w.evictTo(w.maxBlocks, w.maxBytes)
	return true
}

// scale sets the bounds to the configured ones times factor, clamped to the
// floors (factor 1 restores them exactly), and evicts to fit. Below factor
// 1 the window is pressed: it first lets go of every frame it keeps.
func (w *window) scale(factor float64) {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	w.maxBlocks = min(max(int(float64(w.baseBlocks)*factor), windowFloorBlocks), w.baseBlocks)
	w.maxBytes = min(max(int64(float64(w.baseBytes)*factor), windowFloorBytes), w.baseBytes)
	if w.pressed = factor < 1; w.pressed {
		for i := w.head; i < len(w.entries); i++ {
			w.drop = append(w.drop, w.entries[i].frames...)
			w.entries[i].frames = nil
		}
	}
	w.evictTo(w.maxBlocks, w.maxBytes)
}

// evictTo discards oldest entries until the window fits the given bounds.
func (w *window) evictTo(maxBlocks int, maxBytes int64) {
	for w.len() > 0 && (w.len() > maxBlocks || w.bytes > maxBytes) {
		e := &w.entries[w.head]
		w.bytes -= int64(len(e.Data))
		w.dropBlocks++
		w.dropBytes += int64(len(e.Data))
		w.drop = append(w.drop, e.frames...)
		*e = entry{} // release the payload even while the slot lingers
		w.head++
	}
	// Compact once the dead prefix dominates, so the backing array's size
	// stays proportional to the live window.
	if w.head > len(w.entries)/2 && w.head > 32 {
		n := copy(w.entries, w.entries[w.head:])
		clear(w.entries[n:])
		w.entries = w.entries[:n]
		w.head = 0
	}
}

// len reports the number of live entries.
func (w *window) len() int { return len(w.entries) - w.head }

// lookup returns seq's live entry (nil once it left the window) and the
// entry's frame for method m (nil if none is kept).
func (w *window) lookup(seq uint64, m codec.Method) (*entry, *Frame) {
	if w.len() == 0 {
		return nil, nil
	}
	i := seq - w.entries[w.head].Seq // wraps past the window when seq precedes it
	if i >= uint64(w.len()) {
		return nil, nil
	}
	e := &w.entries[w.head+int(i)]
	for _, f := range e.frames {
		if f.method == m {
			return e, f
		}
	}
	return e, nil
}

// replayFrom resolves a resume request: the client has delivered everything
// through lastSeq and wants lastSeq+1 onward. It returns the retained
// blocks to replay (oldest first, possibly empty) and the sequence number
// of the first block the session will deliver — replayed or live. A
// firstSeq beyond lastSeq+1 means the window was evicted past the resume
// point: the difference is an explicit gap the caller must surface.
func (w *window) replayFrom(lastSeq uint64) (replay []Block, firstSeq uint64) {
	// A client claiming more than the channel ever published (absurd or
	// corrupted resume state) is treated as fully caught up: nothing to
	// replay, the next live block is firstSeq.
	if lastSeq >= w.last {
		return nil, w.last + 1
	}
	want := lastSeq + 1
	if w.len() == 0 || w.entries[len(w.entries)-1].Seq < want {
		// Nothing retained at or past the resume point. Everything in
		// (lastSeq, last] — if anything — is gone.
		return nil, w.last + 1
	}
	live := w.entries[w.head:]
	if first := live[0].Seq; want > first {
		live = live[want-first:]
	}
	replay = make([]Block, len(live))
	for i := range live {
		replay[i] = live[i].Block
	}
	return replay, live[0].Seq
}

// purge empties the window, returning every frame it held.
func (w *window) purge() []*Frame {
	w.evictTo(0, 0)
	drop := w.drop
	w.drop, w.dropBlocks, w.dropBytes = nil, 0, 0
	return drop
}
