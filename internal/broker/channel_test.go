package broker

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// propBlock builds the deterministic payload for (channel, seq): readers
// reconstruct it independently, so delivered-byte identity needs no shared
// table between publisher and subscribers.
func propBlock(ch string, seq uint64) []byte {
	head := fmt.Sprintf("%s|%06d|", ch, seq)
	return append([]byte(head), bytes.Repeat([]byte(head), 256/len(head))...)
}

// propReader drains one subscriber connection, recording the sequence
// stream and flagging the first invariant violation (unsequenced event, or
// payload bytes that don't match the publish for that sequence).
type propReader struct {
	ch string
	// resumedFrom is the handshake's lastSeq for resumed sessions, -1 for a
	// fresh subscribe.
	resumedFrom int64
	conn        net.Conn
	reg         *codec.Registry // nil = the built-in codec set
	done        chan struct{}

	mu   sync.Mutex
	seqs []uint64
	bad  string
}

func (r *propReader) run() {
	defer close(r.done)
	fr := codec.NewFrameReader(r.conn, r.reg)
	for {
		data, info, err := fr.ReadBlock()
		if err != nil {
			return
		}
		if len(data) == 0 {
			continue
		}
		r.mu.Lock()
		switch {
		case !info.HasSeq:
			r.bad = "unsequenced event delivered"
		case !bytes.Equal(data, propBlock(r.ch, info.Seq)):
			r.bad = fmt.Sprintf("seq %d delivered with wrong bytes", info.Seq)
		default:
			r.seqs = append(r.seqs, info.Seq)
		}
		r.mu.Unlock()
	}
}

func (r *propReader) lastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seqs) == 0 {
		return 0
	}
	return r.seqs[len(r.seqs)-1]
}

// TestChannelRoutingProperties is the channel core's property test: a
// seeded random schedule of publishes, fresh and resumed subscriber joins
// (with random advertised placements), and subscriber churn runs against
// six channels of one broker. The invariants, per DESIGN §15:
//
//   - per-member sequence monotonicity: every subscriber's delivered seq
//     stream is strictly increasing and gap-free from its first delivery;
//   - exactly-one-of-replay/live: a resumed session's first delivery is
//     exactly lastSeq+1 — the replay snapshot and the live stream splice
//     without duplicating or dropping the block at the boundary;
//   - ledger exactness: at every quiesce point the per-channel ledgers
//     (replay-ring bytes plus the channel's live frame bytes) sum to the
//     broker-wide ledger the governor samples, with stalled subscribers
//     pinning nonzero queued bytes so the check isn't 0 == 0.
//
// Replay with CCX_SEED=<n> to reproduce a failing schedule.
func TestChannelRoutingProperties(t *testing.T) {
	rng := testx.Rand(t)
	guard := testx.GoroutineGuard(t, 10)

	const (
		nChannels = 6
		nOps      = 400
	)
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 512
		c.ReplayBlocks = 4096
		c.ReplayBytes = 32 << 20
	})
	channels := make([]string, nChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("prop%d", i)
	}
	published := make([]uint64, nChannels) // per-channel last stamped seq
	placements := []selector.Placement{
		selector.PlacementPublisher, selector.PlacementBroker, selector.PlacementReceiver,
	}

	var (
		readers []*propReader // every reader ever attached (for final asserts)
		active  []*propReader // still-connected readers
		stalled []net.Conn    // attached but never reading: they pin queue bytes
	)
	attach := func(c int) {
		client, server := net.Pipe()
		b.HandleConn(server)
		pl := placements[rng.Intn(len(placements))]
		r := &propReader{ch: channels[c], resumedFrom: -1, conn: client, done: make(chan struct{})}
		if rng.Intn(2) == 0 && published[c] > 0 {
			last := uint64(rng.Intn(int(published[c]) + 1))
			first, err := HandshakeResumePlacement(client, channels[c], last, pl)
			if err != nil {
				t.Fatalf("resume(%s, %d): %v", channels[c], last, err)
			}
			if first != last+1 {
				t.Fatalf("resume(%s, %d): firstSeq = %d, want %d (window covers the whole stream)",
					channels[c], last, first, last+1)
			}
			r.resumedFrom = int64(last)
		} else if err := HandshakeSubscribePlacement(client, channels[c], pl); err != nil {
			t.Fatalf("subscribe(%s): %v", channels[c], err)
		}
		readers = append(readers, r)
		active = append(active, r)
		go r.run()
	}
	// quiesce publishes one flush block per channel, waits for every live
	// reader to catch up to its channel's final sequence, and then asserts
	// the channel-summed ledger equals the broker-wide one. The two are
	// sampled independently (each channel's own frame-byte counter vs the
	// plane total), so agreement here is the accounting invariant, not a
	// tautology.
	quiesce := func(label string) {
		for c := range channels {
			published[c]++
			if err := b.Publish(channels[c], propBlock(channels[c], published[c])); err != nil {
				t.Fatalf("%s flush publish: %v", label, err)
			}
		}
		for _, r := range active {
			r := r
			want := published[chanIndex(channels, r.ch)]
			testx.WaitUntil(t, fmt.Sprintf("%s: reader on %s caught up to seq %d", label, r.ch, want),
				func() bool { return r.lastSeq() == want })
		}
		testx.WaitUntil(t, label+": channel ledgers sum to the broker ledger", func() bool {
			var sum int64
			for _, st := range b.states() {
				sum += b.met.Gauge("chan."+st.name+".replay_bytes").Value() + st.plane.LiveBytes()
			}
			return sum == b.plane.HeldBytes()
		})
		if b.plane.HeldBytes() == 0 {
			t.Fatalf("%s: broker ledger is 0 — the invariant check is vacuous", label)
		}
	}

	for i := 0; i < nOps; i++ {
		switch r := rng.Float64(); {
		case r < 0.55: // publish
			c := rng.Intn(nChannels)
			published[c]++
			if err := b.Publish(channels[c], propBlock(channels[c], published[c])); err != nil {
				t.Fatalf("publish op %d: %v", i, err)
			}
		case r < 0.78: // attach a reading subscriber (fresh or resumed)
			attach(rng.Intn(nChannels))
		case r < 0.92: // churn: detach a random live reader
			if len(active) == 0 {
				continue
			}
			k := rng.Intn(len(active))
			active[k].conn.Close()
			active = append(active[:k], active[k+1:]...)
		default: // attach a stalled subscriber (bounded: they hold frames)
			if len(stalled) >= 4 {
				continue
			}
			client, server := net.Pipe()
			b.HandleConn(server)
			if err := HandshakeSubscribe(client, channels[rng.Intn(nChannels)]); err != nil {
				t.Fatalf("stalled subscribe op %d: %v", i, err)
			}
			stalled = append(stalled, client)
		}
		if i == nOps/3 || i == 2*nOps/3 {
			quiesce(fmt.Sprintf("mid-schedule op %d", i))
		}
	}
	quiesce("end of schedule")

	// Tear everything down before the final per-reader asserts so every
	// stream is complete.
	for _, c := range stalled {
		c.Close()
	}
	for _, r := range readers {
		r.conn.Close()
		<-r.done
	}

	caughtUp := make(map[*propReader]bool, len(active))
	for _, r := range active {
		caughtUp[r] = true
	}
	for _, r := range readers {
		r.mu.Lock()
		seqs, bad := r.seqs, r.bad
		r.mu.Unlock()
		if bad != "" {
			t.Fatalf("reader on %s: %s", r.ch, bad)
		}
		for k := 1; k < len(seqs); k++ {
			if seqs[k] != seqs[k-1]+1 {
				t.Fatalf("reader on %s: seq %d follows %d — stream not strictly contiguous",
					r.ch, seqs[k], seqs[k-1])
			}
		}
		if r.resumedFrom >= 0 && len(seqs) > 0 && seqs[0] != uint64(r.resumedFrom)+1 {
			t.Fatalf("reader resumed from %d on %s started at seq %d, want %d — replay/live boundary duplicated or dropped",
				r.resumedFrom, r.ch, seqs[0], r.resumedFrom+1)
		}
		if caughtUp[r] {
			want := published[chanIndex(channels, r.ch)]
			if len(seqs) == 0 || seqs[len(seqs)-1] != want {
				t.Fatalf("live reader on %s ended at seq %v, want %d", r.ch, seqs, want)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	testx.NoLeakedFrames(t, b.plane)
	guard()
}

func chanIndex(channels []string, name string) int {
	for i, c := range channels {
		if c == name {
			return i
		}
	}
	return -1
}

// gateCodec is Lempel-Ziv under a custom identifier whose Compress, once
// armed, parks on a gate for blocks starting with prefix — a codec that
// wedges one channel's encode workers and nobody else's.
type gateCodec struct {
	prefix  []byte
	armed   atomic.Bool
	entered atomic.Int32 // Compress calls parked on (or released from) the gate
	open    chan struct{}
	once    sync.Once
}

const gateMethod = codec.FirstCustom + 1

func (g *gateCodec) release() { g.once.Do(func() { close(g.open) }) }

func (g *gateCodec) Method() codec.Method { return gateMethod }
func (g *gateCodec) Compress(src []byte) ([]byte, error) {
	if g.armed.Load() && bytes.HasPrefix(src, g.prefix) {
		g.entered.Add(1)
		<-g.open
	}
	return codec.Compress(codec.LempelZiv, src)
}
func (g *gateCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	return codec.Decompress(codec.LempelZiv, src, origLen)
}

// gatePolicy pins every path to the gate codec.
type gatePolicy struct{}

func (gatePolicy) Name() string { return "pin:gate" }
func (gatePolicy) Select(in selector.Inputs) selector.Decision {
	return selector.Decision{Method: gateMethod, Inputs: in, LZReduceTime: in.LZReduceTime()}
}

// TestStalledChannelDoesNotDelayOthers: a channel is its own serialization
// domain, so one whose encode pipeline is wedged solid — every worker
// parked in the codec, its publisher blocked on the full pipeline — costs
// its own subscribers and nobody else. The broker serves more channels than
// 2xGOMAXPROCS, so under any scheme that multiplexes channels onto a
// CPU-aligned set of loops some healthy channel shares the wedged one's
// loop; every healthy channel must still deliver within WaitUntil's bound.
func TestStalledChannelDoesNotDelayOthers(t *testing.T) {
	guard := testx.GoroutineGuard(t, 10)
	const workers = 2
	nChannels := 2*runtime.GOMAXPROCS(0) + 2
	channels := make([]string, nChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("lane%d", i)
	}
	wedged := channels[0]
	gate := &gateCodec{prefix: []byte(wedged + "|"), open: make(chan struct{})}
	defer gate.release()
	reg := codec.NewRegistry()
	reg.Register(gate)
	b := newTestBroker(t, func(c *Config) {
		c.Engine.Registry = reg
		c.Engine.Workers = workers
		c.Engine.Policy = gatePolicy{}
	})

	// One reading subscriber per channel, attached before anything stalls.
	readers := make([]*propReader, nChannels)
	for i, ch := range channels {
		client, server := net.Pipe()
		b.HandleConn(server)
		if err := HandshakeSubscribe(client, ch); err != nil {
			t.Fatalf("subscribe(%s): %v", ch, err)
		}
		readers[i] = &propReader{ch: ch, resumedFrom: -1, conn: client, reg: reg, done: make(chan struct{})}
		go readers[i].run()
	}

	// Warm the wedged channel's path: its first delivery migrates the member
	// from the initial raw class to the gate codec's, so later blocks take
	// the encode pipeline.
	if err := b.Publish(wedged, propBlock(wedged, 1)); err != nil {
		t.Fatal(err)
	}
	testx.WaitUntil(t, "warm-up block delivered", func() bool { return readers[0].lastSeq() == 1 })

	// Wedge it: one block per worker parks in the codec, and one more finds
	// the pipeline full and blocks whoever submits it.
	gate.armed.Store(true)
	wedgeDone := make(chan error, 1)
	go func() {
		for seq := uint64(2); seq <= workers+2; seq++ {
			if err := b.Publish(wedged, propBlock(wedged, seq)); err != nil {
				wedgeDone <- err
				return
			}
		}
		wedgeDone <- nil
	}()
	seqGauge := b.Metrics().Gauge("chan." + wedged + ".seq")
	testx.WaitUntil(t, "every worker of the wedged channel parked and the next block stamped", func() bool {
		return gate.entered.Load() == workers && seqGauge.Value() == workers+2
	})

	for _, ch := range channels[1:] {
		if err := b.Publish(ch, propBlock(ch, 1)); err != nil {
			t.Fatalf("publish(%s): %v", ch, err)
		}
	}
	for _, r := range readers[1:] {
		r := r
		testx.WaitUntil(t, "delivery on "+r.ch+" while "+wedged+" is wedged",
			func() bool { return r.lastSeq() == 1 })
	}
	if got := readers[0].lastSeq(); got != 1 {
		t.Fatalf("wedged channel delivered seq %d through a closed gate", got)
	}

	// Open the gate: the wedged channel catches up, in order.
	gate.release()
	if err := <-wedgeDone; err != nil {
		t.Fatalf("wedged publisher: %v", err)
	}
	testx.WaitUntil(t, "wedged channel caught up", func() bool { return readers[0].lastSeq() == workers+2 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, r := range readers {
		r.conn.Close()
		<-r.done
		if r.bad != "" {
			t.Fatalf("reader on %s: %s", r.ch, r.bad)
		}
	}
	testx.NoLeakedFrames(t, b.plane)
	guard()
}
