package encplane

import (
	"bytes"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/testx"
)

// newWindow returns a window at the given bounds, as Plane.Channel builds
// one.
func newWindow(blocks int, bytes int64) *window {
	w := &window{baseBlocks: blocks, baseBytes: bytes}
	w.scale(1)
	return w
}

// pushSeqs pushes one block of data per sequence number in [from, to].
func pushSeqs(w *window, from, to uint64, data []byte) {
	for seq := from; seq <= to; seq++ {
		w.push(Block{Data: data, Seq: seq})
	}
}

func TestWindowZeroConfigRetains(t *testing.T) {
	p, _ := newTestPlane(t, nil) // both window bounds zero: the defaults
	ch := p.Channel("md")
	for seq := uint64(1); seq <= 3; seq++ {
		ch.Publish([]byte("x"), seq)
	}
	if blocks, bytes := ch.win.len(), ch.win.bytes; blocks != 3 || bytes != 3 {
		t.Fatalf("window = %d blocks / %d bytes, want 3 / 3", blocks, bytes)
	}
	replay, first := ch.ReplayFrom(1)
	if first != 2 || len(replay) != 2 || replay[0].Seq != 2 || replay[1].Seq != 3 {
		t.Fatalf("ReplayFrom(1) = %d blocks from %d, want seqs 2-3", len(replay), first)
	}
	ch.mu.Lock()
	maxBlocks, maxBytes := ch.win.maxBlocks, ch.win.maxBytes
	ch.mu.Unlock()
	if maxBlocks != DefaultWindowBlocks || maxBytes != DefaultWindowBytes {
		t.Fatalf("bounds = %d / %d, want the defaults", maxBlocks, maxBytes)
	}
}

func TestWindowBlockBound(t *testing.T) {
	w := newWindow(3, 1<<20)
	for seq := uint64(1); seq <= 5; seq++ {
		w.push(Block{Data: []byte{byte(seq)}, Seq: seq})
	}
	if w.dropBlocks != 2 || w.len() != 3 {
		t.Fatalf("evicted %d, len %d; want 2, 3", w.dropBlocks, w.len())
	}
	replay, first := w.replayFrom(0)
	if first != 3 || len(replay) != 3 {
		t.Fatalf("replayFrom(0) = %d entries from %d, want 3 from 3", len(replay), first)
	}
	for i, e := range replay {
		if e.Seq != uint64(3+i) {
			t.Fatalf("replay[%d].Seq = %d", i, e.Seq)
		}
	}
}

func TestWindowByteBound(t *testing.T) {
	w := newWindow(1000, 10)          // ten payload bytes total
	pushSeqs(w, 1, 6, []byte("abcd")) // 4 bytes each; at most 2 fit under 10
	if w.len() != 2 || w.bytes != 8 {
		t.Fatalf("len %d bytes %d; want 2, 8", w.len(), w.bytes)
	}
	if _, first := w.replayFrom(0); first != 5 {
		t.Fatalf("firstSeq = %d, want 5", first)
	}
}

// TestWindowOversizedBlockNeverRetained: a block that alone exceeds the
// byte bound is never retained, and it restarts the window, so the window
// stays one run of sequence numbers. A resume from before it is an explicit
// gap.
func TestWindowOversizedBlockNeverRetained(t *testing.T) {
	w := newWindow(8, 10)
	w.push(Block{Data: []byte("ok"), Seq: 1})
	w.push(Block{Data: make([]byte, 64), Seq: 2}) // alone exceeds the byte bound
	if w.dropBlocks != 2 || w.dropBytes != 2 {
		t.Fatalf("oversized push evicted (%d, %d), want (2, 2): the window and the block itself",
			w.dropBlocks, w.dropBytes)
	}
	if replay, first := w.replayFrom(0); replay != nil || first != 3 {
		t.Fatalf("replayFrom(0) = %d entries from %d, want none from 3", len(replay), first)
	}
	w.push(Block{Data: []byte("ok"), Seq: 3})
	if replay, first := w.replayFrom(2); first != 3 || len(replay) != 1 {
		t.Fatalf("replayFrom(2) = %d entries from %d, want 1 from 3", len(replay), first)
	}
}

// TestWindowRefusesBrokenRun: the first block may start the run anywhere,
// but after it a publish that skips or repeats a sequence number is
// refused, so the window stays one run that a sequence number indexes by
// subtraction.
func TestWindowRefusesBrokenRun(t *testing.T) {
	p, _ := newTestPlane(t, nil)
	ch := p.Channel("md")
	for seq := uint64(5); seq <= 7; seq++ {
		if !ch.Publish([]byte("x"), seq) {
			t.Fatalf("seq %d refused", seq)
		}
	}
	if ch.Publish([]byte("y"), 9) || ch.Publish([]byte("y"), 7) {
		t.Fatal("a skip or a repeat was accepted")
	}
	if !ch.Publish([]byte("z"), 8) {
		t.Fatal("seq 8 refused")
	}
	replay, first := ch.ReplayFrom(4)
	if first != 5 || len(replay) != 4 || !bytes.Equal(replay[3].Data, []byte("z")) {
		t.Fatalf("ReplayFrom(4) = %d blocks from %d, want seqs 5-8 ending in the accepted 8", len(replay), first)
	}
}

func TestWindowCaughtUpAndAbsurdResume(t *testing.T) {
	w := newWindow(8, 1<<20)
	pushSeqs(w, 1, 4, []byte("x"))
	if replay, first := w.replayFrom(4); replay != nil || first != 5 {
		t.Fatalf("caught-up resume = (%v, %d), want (nil, 5)", replay, first)
	}
	if replay, first := w.replayFrom(1 << 40); replay != nil || first != 5 {
		t.Fatalf("absurd resume = (%v, %d), want (nil, 5)", replay, first)
	}
}

func TestWindowCompaction(t *testing.T) {
	w := newWindow(10, 1<<20)
	for seq := uint64(1); seq <= 500; seq++ {
		w.push(Block{Data: []byte{byte(seq)}, Seq: seq})
	}
	if w.len() != 10 {
		t.Fatalf("len = %d, want 10", w.len())
	}
	// Compaction must keep the backing array proportional to the window,
	// not the stream.
	if len(w.entries) > 64 {
		t.Fatalf("backing array grew to %d entries for a 10-block window", len(w.entries))
	}
	replay, first := w.replayFrom(490)
	if first != 491 || len(replay) != 10 {
		t.Fatalf("replayFrom(490) = %d entries from %d", len(replay), first)
	}
	if e, _ := w.lookup(495, codec.None); e == nil || e.Seq != 495 {
		t.Fatalf("lookup(495) = %v after compaction", e)
	}
}

// TestWindowPressureScale: a shrink evicts to the scaled bounds, never below
// the floors, and factor 1 restores the configured bounds.
func TestWindowPressureScale(t *testing.T) {
	w := newWindow(256, 8<<20)
	pushSeqs(w, 1, 128, make([]byte, 64<<10)) // 8 MiB: both bounds full
	w.scale(0.25)
	if w.len() != 32 || w.bytes != 2<<20 {
		t.Fatalf("at 25%%: %d blocks / %d bytes, want 32 / 2 MiB", w.len(), w.bytes)
	}
	w.scale(0.01)
	if w.maxBlocks != windowFloorBlocks || w.maxBytes != windowFloorBytes || w.len() != 16 {
		t.Fatalf("at 1%%: bounds %d / %d holding %d, want the floors", w.maxBlocks, w.maxBytes, w.len())
	}
	w.scale(1)
	if w.maxBlocks != 256 || w.maxBytes != 8<<20 {
		t.Fatalf("restored bounds %d / %d, want 256 / 8 MiB", w.maxBlocks, w.maxBytes)
	}
}

// TestWindowKeepsAndReleasesFrames: each encoded frame stays beside its
// block, serves later requests for the same (block, method), and leaves
// with the block — counted as an eviction and released.
func TestWindowKeepsAndReleasesFrames(t *testing.T) {
	p, met := newTestPlane(t, func(c *Config) { c.WindowBlocks = 2 })
	ch := p.Channel("md")
	col := newCollector(8)
	mb := ch.Join(codec.LempelZiv, col.deliver)
	data := bytes.Repeat([]byte("kept beside its block "), 50)
	ch.Publish(data, 1)
	var d Delivery
	select {
	case d = <-col.queue:
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	d.Frame.Release()
	// The sequencer delivers a frame before it hands the frame to the window.
	testx.WaitUntil(t, "the frame kept in the window", func() bool {
		ch.mu.Lock()
		defer ch.mu.Unlock()
		_, f := ch.win.lookup(1, codec.LempelZiv)
		return f != nil
	})
	f, err := ch.EncodeCached(data, 1, codec.LempelZiv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f != d.Frame || met.Counter("encplane.cache_hits").Value() != 1 || met.Counter("encplane.encodes").Value() != 1 {
		t.Fatal("the published frame was not served from the window")
	}
	f.Release()
	mb.Leave()
	ch.Publish(data, 2)
	ch.Publish(data, 3) // seq 1 leaves the window, and its frame with it
	if n := met.Counter("encplane.cache_evictions").Value(); n != 1 {
		t.Fatalf("cache_evictions = %d, want 1", n)
	}
	if n := p.LiveFrames(); n != 0 {
		t.Fatalf("%d frames live after their block left the window", n)
	}
	if n := met.Counter("broker.replay_evicted_blocks").Value(); n != 1 {
		t.Fatalf("replay_evicted_blocks = %d, want 1", n)
	}
}

// TestWindowPressedKeepsNoFrames: memory pressure lets go of the frames a
// window keeps and keeps none while it lasts (they can be encoded again,
// the blocks cannot); factor 1 keeps them once more.
func TestWindowPressedKeepsNoFrames(t *testing.T) {
	p, met := newTestPlane(t, nil)
	ch := p.Channel("md")
	data := bytes.Repeat([]byte("pressed "), 100)
	ch.Publish(data, 1)
	encode := func() {
		t.Helper()
		f, err := ch.EncodeCached(data, 1, codec.LempelZiv, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	encode() // kept beside block 1
	p.SetPressure(0.5)
	if n := met.Counter("encplane.cache_evictions").Value(); n != 1 || p.LiveFrames() != 0 {
		t.Fatalf("after the shrink: %d evictions, %d frames live; want 1, 0", n, p.LiveFrames())
	}
	encode()
	encode()
	if n := met.Counter("encplane.encodes").Value(); n != 3 || p.LiveFrames() != 0 {
		t.Fatalf("pressed: %d encodes, %d frames live; want 3, 0", n, p.LiveFrames())
	}
	p.SetPressure(1)
	encode()
	encode()
	if enc, hits := met.Counter("encplane.encodes").Value(), met.Counter("encplane.cache_hits").Value(); enc != 4 || hits != 1 {
		t.Fatalf("restored: %d encodes, %d hits; want 4, 1", enc, hits)
	}
}
