package encplane

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ccx/internal/arith"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/metrics"
	"ccx/internal/sampling"
)

var allMethods = []codec.Method{
	codec.None, codec.Huffman, codec.Arithmetic, codec.LempelZiv, codec.BurrowsWheeler,
}

// allCodecs speaks allMethods: the built-ins plus arithmetic coding.
func allCodecs() *codec.Registry {
	reg := codec.NewRegistry()
	reg.Register(codec.NewFuncCodec(codec.Arithmetic, arith.Compress, arith.Decompress))
	return reg
}

func newTestPlane(t *testing.T, mod func(*Config)) (*Plane, *metrics.Registry) {
	t.Helper()
	met := metrics.NewRegistry()
	cfg := Config{Workers: 4, Metrics: met, Engine: core.Config{Registry: allCodecs()}}
	if mod != nil {
		mod(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, met
}

// collector queues deliveries like a subscriber would, accepting until
// closed and releasing every frame it drained.
type collector struct {
	mu    sync.Mutex
	dead  bool
	queue chan Delivery
}

func newCollector(depth int) *collector {
	return &collector{queue: make(chan Delivery, depth)}
}

func (c *collector) deliver(d Delivery) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false
	}
	select {
	case c.queue <- d:
		return true
	default:
		return false
	}
}

// stop refuses future deliveries and drains (releasing) everything queued,
// returning the drained deliveries' frames' wire bytes and sequences.
func (c *collector) stop() (frames [][]byte, seqs []uint64) {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	for {
		select {
		case d := <-c.queue:
			frames = append(frames, append([]byte(nil), d.Frame.Bytes()...))
			seqs = append(seqs, d.Seq)
			d.Frame.Release()
		default:
			return frames, seqs
		}
	}
}

// TestByteIdentityAllMethods proves the shared plane emits the exact bytes a
// per-subscriber encode loop would: for every method, frames fanned out by
// Publish and frames served by EncodeCached both equal a direct
// codec.AppendFrameOpts of the same (block, method, seq) — including the
// expansion-fallback path on incompressible data.
func TestByteIdentityAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := [][]byte{
		bytes.Repeat([]byte("abcabcabc"), 500), // compressible
		[]byte("short"),                        // tiny
		make([]byte, 4096),                     // zeros
		func() []byte { b := make([]byte, 4096); rng.Read(b); return b }(), // incompressible: fallback
	}
	for _, m := range allMethods {
		reg := allCodecs()
		p, _ := newTestPlane(t, func(c *Config) { c.Engine = core.Config{Registry: reg} })
		ch := p.Channel("md")
		col := newCollector(len(blocks) + 1)
		mb := ch.Join(m, col.deliver)

		for i, b := range blocks {
			ch.Publish(b, uint64(i+1))
		}
		if err := p.Close(); err != nil { // flush the pipeline
			t.Fatal(err)
		}
		frames, seqs := col.stop()
		mb.Leave()
		if len(frames) != len(blocks) {
			t.Fatalf("%v: got %d frames, want %d", m, len(frames), len(blocks))
		}
		for i, b := range blocks {
			want, _, err := codec.AppendFrameOpts(nil, reg, m, b, codec.FrameOpts{Seq: uint64(i + 1), HasSeq: true})
			if err != nil {
				t.Fatalf("%v: direct encode: %v", m, err)
			}
			if seqs[i] != uint64(i+1) {
				t.Fatalf("%v: frame %d carries seq %d", m, i, seqs[i])
			}
			if !bytes.Equal(frames[i], want) {
				t.Fatalf("%v: block %d: plane frame differs from direct encode (%d vs %d bytes)",
					m, i, len(frames[i]), len(want))
			}
		}
	}
}

// TestEncodeCachedIdentityAndDedup checks the replay path: EncodeCached
// returns bytes identical to a direct encode, and a second request for the
// same (seq, method) is served from the window, not a second encode.
func TestEncodeCachedIdentityAndDedup(t *testing.T) {
	reg := allCodecs()
	p, met := newTestPlane(t, func(c *Config) { c.Engine = core.Config{Registry: reg} })
	ch := p.Channel("md")
	data := bytes.Repeat([]byte("replay me "), 300)
	ch.Publish(data, 42) // no members: retained, not encoded

	for _, m := range allMethods {
		f1, err := ch.EncodeCached(data, 42, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := ch.EncodeCached(data, 42, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := codec.AppendFrameOpts(nil, reg, m, data, codec.FrameOpts{Seq: 42, HasSeq: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f1.Bytes(), want) || !bytes.Equal(f2.Bytes(), want) {
			t.Fatalf("%v: cached frame differs from direct encode", m)
		}
		f1.Release()
		f2.Release()
	}
	if got := met.Counter("encplane.encodes").Value(); got != int64(len(allMethods)) {
		t.Fatalf("encodes = %d, want %d (one per method)", got, len(allMethods))
	}
	if got := met.Counter("encplane.cache_hits").Value(); got != int64(len(allMethods)) {
		t.Fatalf("cache_hits = %d, want %d", got, len(allMethods))
	}
}

// TestDeliveryCarriesBlock checks that what the publisher knows about a
// block — annotation and probe — reaches every class's delivery untouched,
// and that the frame carries the annotation.
func TestDeliveryCarriesBlock(t *testing.T) {
	p, _ := newTestPlane(t, nil)
	ch := p.Channel("md")
	cols := []*collector{newCollector(2), newCollector(2)}
	ch.Join(codec.None, cols[0].deliver)
	ch.Join(codec.LempelZiv, cols[1].deliver)
	blk := Block{
		Data:  bytes.Repeat([]byte("carried "), 100),
		Seq:   9,
		Anno:  []byte{0x7f, 0x01, 0xaa},
		Probe: sampling.ProbeResult{SampleLen: 800, Ratio: 0.25},
	}
	if !ch.PublishBlock(blk) {
		t.Fatal("publish refused")
	}
	for _, col := range cols {
		var d Delivery
		select {
		case d = <-col.queue:
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery")
		}
		if d.Seq != blk.Seq || d.Probe != blk.Probe || !bytes.Equal(d.Anno, blk.Anno) || !bytes.Equal(d.Data, blk.Data) {
			t.Fatalf("delivery %+v does not carry the published block", d.Block)
		}
		if !bytes.Equal(d.Frame.Info().Anno, blk.Anno) {
			t.Fatalf("frame annotation %x, want %x", d.Frame.Info().Anno, blk.Anno)
		}
		d.Frame.Release()
	}
}

// TestClassesGaugeTracksDistinctMethods checks chan.<name>.classes follows
// joins, migrations, and leaves.
func TestClassesGaugeTracksDistinctMethods(t *testing.T) {
	p, met := newTestPlane(t, nil)
	ch := p.Channel("md")
	g := met.Gauge("chan.md.classes")

	a := ch.Join(codec.None, func(Delivery) bool { return false })
	b := ch.Join(codec.None, func(Delivery) bool { return false })
	if g.Value() != 1 {
		t.Fatalf("classes = %d after two None joins, want 1", g.Value())
	}
	b.Migrate(codec.LempelZiv)
	if g.Value() != 2 {
		t.Fatalf("classes = %d after migration, want 2", g.Value())
	}
	b.Leave()
	if g.Value() != 1 {
		t.Fatalf("classes = %d after leave, want 1", g.Value())
	}
	a.Leave()
	if g.Value() != 0 {
		t.Fatalf("classes = %d after all left, want 0", g.Value())
	}
}

// TestMemberSeqMonotonicThroughMigrations migrates a member on every block
// and checks its delivered sequence stream is exactly 1..n — no block
// duplicated or dropped across a class move, because each publish snapshots
// membership once and the pipeline sequencer emits in submission order.
func TestMemberSeqMonotonicThroughMigrations(t *testing.T) {
	p, met := newTestPlane(t, nil)
	ch := p.Channel("md")
	const n = 100
	col := newCollector(n + 1)
	mb := ch.Join(codec.None, col.deliver)
	data := bytes.Repeat([]byte("sequenced payload "), 64)
	for seq := uint64(1); seq <= n; seq++ {
		ch.Publish(data, seq)
		mb.Migrate(allMethods[int(seq)%len(allMethods)])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_, seqs := col.stop()
	mb.Leave()
	if len(seqs) != n {
		t.Fatalf("delivered %d blocks, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs[%d] = %d: gap or duplicate across a migration", i, s)
		}
	}
	if met.Counter("encplane.migrations").Value() == 0 {
		t.Fatal("no migrations recorded; test exercised nothing")
	}
}

// TestFrameRefcountGuards confirms misuse panics instead of corrupting.
func TestFrameRefcountGuards(t *testing.T) {
	p, _ := newTestPlane(t, nil)
	ch := p.Channel("md")
	ch.Publish([]byte("x"), 1)
	f, err := ch.EncodeCached([]byte("x"), 1, codec.None, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Release() // caller ref gone; the window still holds one

	// Pull the kept frame out of the window again.
	f2, err := ch.EncodeCached([]byte("x"), 1, codec.None, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", what)
			}
		}()
		fn()
	}
	_ = f2
	// A frame fully released must reject Retain. Build standalone frames on
	// their own channels, whose windows hold no block to keep them, so the
	// counts actually reach zero. (Retain's panic fires after its increment, so each guard needs
	// its own pristine zero-count frame.)
	deadFrame := func(name string) *Frame {
		ch := p.Channel(name)
		g, err := ch.EncodeCached([]byte("y"), 1, codec.None, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
		ch.close()
		return g
	}
	mustPanic("Retain after release", func() { deadFrame("other1").Retain() })
	mustPanic("Release past zero", func() { deadFrame("other2").Release() })
}

// TestRefcountChurnStorm is the leak hunt: members join, migrate, and leave
// under a publish storm, with queues refusing, accepting, and draining
// concurrently. After everything quiesces and the plane closes, every frame
// reference must be gone — zero leaks, and any use-after-release would have
// panicked via the refcount guards. Run with -race.
func TestRefcountChurnStorm(t *testing.T) {
	p, met := newTestPlane(t, func(c *Config) { c.WindowBlocks = 16 }) // small: force evictions
	ch := p.Channel("md")

	const (
		churners  = 8
		publishes = 400
	)
	// Stable members guarantee every publish fans out even when the churners
	// are all between join and leave; deep queues accept the whole storm.
	var (
		stableCols []*collector
		stableMbs  []*Member
	)
	for i := 0; i < 3; i++ {
		col := newCollector(publishes + 1)
		stableCols = append(stableCols, col)
		stableMbs = append(stableMbs, ch.Join(allMethods[i], col.deliver))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				col := newCollector(4)
				mb := ch.Join(allMethods[rng.Intn(len(allMethods))], col.deliver)
				spins := rng.Intn(4) + 1
				for j := 0; j < spins; j++ {
					mb.Migrate(allMethods[rng.Intn(len(allMethods))])
					time.Sleep(time.Duration(rng.Intn(150)) * time.Microsecond)
					// Partial drain keeps queues churning between refusal
					// (full) and acceptance.
					select {
					case d := <-col.queue:
						d.Frame.Release()
					default:
					}
				}
				mb.Leave()
				col.stop() // refuse future deliveries, release the backlog
			}
		}(i)
	}

	data := bytes.Repeat([]byte("churn payload "), 200)
	for seq := uint64(1); seq <= publishes; seq++ {
		ch.Publish(data, seq)
		if seq%16 == 0 {
			time.Sleep(100 * time.Microsecond) // let the churn interleave
		}
	}
	if err := p.Close(); err != nil { // flush in-flight fan-outs
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	for _, mb := range stableMbs {
		mb.Leave()
	}
	for _, col := range stableCols {
		col.stop()
	}

	if n := p.LiveFrames(); n != 0 {
		t.Fatalf("%d frames still hold references after churn quiesced", n)
	}
	if met.Counter("encplane.encodes").Value() == 0 {
		t.Fatal("storm encoded nothing; test exercised no fan-out")
	}
	if g := met.Gauge("chan.md.queued_bytes").Value(); g != 0 {
		t.Fatalf("chan.md.queued_bytes = %d after quiesce, want 0", g)
	}
}

// TestClosedChannelCachesNothing pins the teardown leak: a write loop that
// outlives the plane can still encode on demand after the final window
// purge, and that frame must not be parked in a window nobody will purge
// again.
func TestClosedChannelCachesNothing(t *testing.T) {
	p, _ := newTestPlane(t, nil)
	ch := p.Channel("md")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := ch.EncodeCached([]byte("after the purge"), 1, codec.LempelZiv, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if frames, bytes := p.LiveFrames(), p.LiveBytes(); frames != 0 || bytes != 0 {
		t.Fatalf("after close + EncodeCached + Release: %d live frames, %d live bytes, want 0/0", frames, bytes)
	}
}

// TestPublishAfterCloseQueuesNothing: a publish the closed pipeline refuses
// says so, and leaves no job context, frame or delivery behind.
func TestPublishAfterCloseQueuesNothing(t *testing.T) {
	p, met := newTestPlane(t, nil)
	ch := p.Channel("md")
	col := newCollector(4)
	ch.Join(codec.Huffman, col.deliver)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if ch.Publish([]byte("too late"), 1) {
		t.Fatal("publish after close reported the block accepted")
	}
	// Refusal does not depend on there being anyone to deliver to, nor on
	// the channel having existed before the close.
	if p.Channel("idle-late").Publish([]byte("too late"), 1) {
		t.Fatal("publish on a channel created after close reported the block accepted")
	}
	if frames, _ := col.stop(); len(frames) != 0 {
		t.Fatalf("%d deliveries after close, want 0", len(frames))
	}
	if n := met.Counter("encplane.encodes").Value(); n != 0 {
		t.Fatalf("encodes = %d after close, want 0", n)
	}
	if frames, bytes := p.LiveFrames(), p.LiveBytes(); frames != 0 || bytes != 0 {
		t.Fatalf("after refused publish: %d live frames, %d live bytes, want 0/0", frames, bytes)
	}
}
