package broker

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/governor"
	"ccx/internal/testx"
)

// readUntilError drains a subscriber connection through the client-side
// stack ccrecv uses — frame decode plus the close-reason handler — and
// returns the terminal error. onBlock, when non-nil, runs per decoded
// block (a pace there makes a deliberately slow consumer).
func readUntilError(conn net.Conn, onBlock func()) error {
	r := core.NewReader(conn, nil, func(codec.BlockInfo) {
		if onBlock != nil {
			onBlock()
		}
	})
	r.SetCloseHandler(func(anno []byte) error {
		if reason, msg, ok := codec.ParseCloseAnno(anno); ok {
			return &EvictedError{Reason: reason, Msg: msg}
		}
		return nil
	})
	buf := make([]byte, 1<<16)
	for {
		if _, err := r.Read(buf); err != nil {
			return err
		}
	}
}

// TestEvictionReasonSurfacesToClient pins the close-frame handshake: an
// eviction must reach the client as "evicted: overload", not as a generic
// read error on a severed connection.
func TestEvictionReasonSurfacesToClient(t *testing.T) {
	b := newTestBroker(t, nil)
	conn := attachSubscriber(t, b, "md")
	got := make(chan struct{}, 4)
	errc := make(chan error, 1)
	go func() { errc <- readUntilError(conn, func() { got <- struct{}{} }) }()

	// Deliver one block so the write loop is demonstrably live, then let it
	// go idle so the goodbye frame has the write lock to itself.
	if err := b.Publish("md", []byte("one healthy block")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never received the first block")
	}
	var s *subscriber
	for _, x := range b.allSubs() {
		s = x
	}
	if s == nil {
		t.Fatal("no subscriber registered")
	}
	testx.WaitUntil(t, "write loop idle", func() bool { return s.backlog() == 0 })
	b.evictSub(s, codec.CloseOverload, "overload shed: memory pressure critical")

	var err error
	select {
	case err = <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("client read never terminated after eviction")
	}
	var ev *EvictedError
	if !errors.As(err, &ev) {
		t.Fatalf("client error = %v (%T), want *EvictedError", err, err)
	}
	if ev.Reason != codec.CloseOverload {
		t.Fatalf("reason = %v, want overload", ev.Reason)
	}
	if !strings.Contains(err.Error(), "evicted: overload") {
		t.Fatalf("error text %q does not surface the eviction reason", err)
	}
	if n := b.Metrics().Counter("broker.evictions").Value(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
}

// TestBreakerEvictsSlowConsumer drives the circuit breaker organically: a
// consumer that keeps reading, but so slowly that every delivery's queue
// wait stays over BreakerWait for the whole window, is evicted with the
// explicit "slow consumer" reason.
func TestBreakerEvictsSlowConsumer(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 64
		c.BreakerWait = time.Millisecond
		c.BreakerWindow = 25 * time.Millisecond
	})
	conn := attachSubscriber(t, b, "md")
	errc := make(chan error, 1)
	go func() {
		errc <- readUntilError(conn, func() { pace(t, 5*time.Millisecond) })
	}()
	// Flood the queue up front: every subsequent dequeue observes a wait
	// far over the threshold, so the over-threshold run begins at the
	// first delivery and trips once the window elapses.
	payload := bytes.Repeat([]byte("slow"), 128)
	for i := 0; i < 64; i++ {
		if err := b.Publish("md", payload); err != nil {
			t.Fatal(err)
		}
	}

	var err error
	select {
	case err = <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("breaker never tripped")
	}
	var ev *EvictedError
	if !errors.As(err, &ev) {
		t.Fatalf("client error = %v (%T), want *EvictedError", err, err)
	}
	if ev.Reason != codec.CloseSlowConsumer {
		t.Fatalf("reason = %v, want slow consumer", ev.Reason)
	}
	if !strings.Contains(err.Error(), "evicted: slow consumer") {
		t.Fatalf("error text %q does not surface the breaker reason", err)
	}
	if n := b.Metrics().Counter("broker.breaker_trips").Value(); n != 1 {
		t.Fatalf("breaker_trips = %d, want 1", n)
	}
}

// TestAdmissionRefusesAndRecovers drives the memory dimension critical
// through the replay window, asserts new subscribes get the RETRY-AFTER
// refusal, and then — after the governor's own retention shrink relieves
// the pressure — recovers admission within one sample (Hold = 1).
func TestAdmissionRefusesAndRecovers(t *testing.T) {
	const budget = 4 << 20
	b := newTestBroker(t, func(c *Config) {
		c.ReplayBlocks = 256
		c.ReplayBytes = 8 << 20
		c.RetryAfter = 750 * time.Millisecond
		c.Governor = &governor.Config{MemBudget: -1, BytesBudget: budget, Interval: time.Hour}
	})
	// 64 × 64 KiB fills the window to the full budget — past the 85%
	// critical fraction. Nobody subscribes, so no frame is encoded.
	for i := 0; i < 64; i++ {
		if err := b.Publish("md", make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	snap := b.Governor().SampleNow()
	if snap.Mem != governor.LevelCritical || b.Governor().Level() != governor.LevelCritical {
		t.Fatalf("mem level = %v (queued %d / budget %d), want critical", snap.Mem, snap.Queued, budget)
	}

	client, server := net.Pipe()
	b.HandleConn(server)
	err := HandshakeSubscribe(client, "md")
	client.Close()
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("subscribe under critical memory = %v (%T), want *OverloadError", err, err)
	}
	if ov.RetryAfter != 750*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want the configured 750ms", ov.RetryAfter)
	}
	if !errors.Is(err, ErrRefused) {
		t.Fatal("an overload refusal must still be an ErrRefused")
	}
	if n := b.Metrics().Counter("broker.admission_refused").Value(); n != 1 {
		t.Fatalf("admission_refused = %d, want 1", n)
	}
	if n := b.Metrics().Counter("governor.shed_subscribes").Value(); n != 1 {
		t.Fatalf("governor.shed_subscribes = %d, want 1", n)
	}

	// The critical sample shrank retention to 25% of the configured budget:
	// the window must hold exactly 2 MiB now, with its byte ledger matching
	// the surviving entries to the byte.
	ringLen, ringBytes, sum := windowLedger(b, b.state("md"))
	if ringBytes != 2<<20 || ringLen != 32 {
		t.Fatalf("window after shrink = %d bytes / %d blocks, want 2MiB / 32", ringBytes, ringLen)
	}
	if sum != ringBytes {
		t.Fatalf("window ledger %d != entry sum %d after pressure eviction", ringBytes, sum)
	}

	// One calm sample later (queued 2 MiB, well under the down threshold)
	// the level is back to ok and admission is open again.
	if snap = b.Governor().SampleNow(); snap.Level != governor.LevelOK {
		t.Fatalf("level after shrink = %v (queued %d), want ok within one sample", snap.Level, snap.Queued)
	}
	conn := attachSubscriber(t, b, "md")
	conn.Close()
	if n := b.Metrics().Counter("governor.transitions").Value(); n < 2 {
		t.Fatalf("transitions = %d, want the up and down moves recorded", n)
	}
}

// TestChurnStormExactAccounting hammers subscribe/evict churn against a
// live publish storm with a fast-sampling governor shedding alongside the
// Evict policy, then proves nothing leaked: the replay window's byte ledger
// matches its entries exactly, and after shutdown (which purges the window
// and the frames it keeps) not one shared frame reference is still alive.
// Run under -race.
func TestChurnStormExactAccounting(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 8
		c.Policy = Evict
		c.ReplayBlocks = 32
		c.ReplayBytes = 256 << 10
		c.Governor = &governor.Config{MemBudget: -1, BytesBudget: 384 << 10, Interval: 2 * time.Millisecond}
	})
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		payload := bytes.Repeat([]byte("churn-storm "), 512)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.Publish("md", payload); err != nil {
				return
			}
		}
	}()

	eventsIn := b.Metrics().Counter("broker.events_in")
	var readers sync.WaitGroup
	for round := 0; round < 6; round++ {
		conns := make([]net.Conn, 0, 12)
		for i := 0; i < 12; i++ {
			client, server := net.Pipe()
			b.HandleConn(server)
			if err := HandshakeSubscribe(client, "md"); err != nil {
				// Refusals are churn too: the governor may be shedding this
				// instant, or the Evict policy cut the session because the
				// publish storm overflowed its queue before the handshake
				// finished (seen under CPU load).
				if errors.Is(err, ErrRefused) {
					client.Close()
					continue
				}
				t.Fatalf("round %d subscribe: %v", round, err)
			}
			conns = append(conns, client)
			if i%2 == 0 {
				// Half consume until cut off; the stalled half back up their
				// queues and get evicted (policy or governor shed).
				readers.Add(1)
				go func(c net.Conn) {
					defer readers.Done()
					_, _ = io.Copy(io.Discard, c)
				}(client)
			}
		}
		// Let the storm run this round's stalled queues (8 deep) over.
		mark := eventsIn.Value()
		testx.WaitUntil(t, "publish storm advanced past the stalled queues",
			func() bool { return eventsIn.Value() >= mark+32 })
		for _, c := range conns {
			c.Close()
		}
	}
	close(stop)
	pubWG.Wait()
	readers.Wait()
	testx.WaitUntil(t, "all churned subscribers torn down", func() bool { return b.Subscribers() == 0 })

	// With the sampler stopped, the bounds in force are the configured ones
	// scaled for the last memory level, clamped as the plane clamps them:
	// min(max(base × scale, floor), base), floors 16 blocks / 1 MiB.
	b.Governor().Stop()
	f := memScale(b.Governor().Memory())
	maxBlocks := min(max(int(32*f), 16), 32)
	maxBytes := min(max(int64(float64(256<<10)*f), 1<<20), 256<<10)
	ringLen, ringBytes, sum := windowLedger(b, b.state("md"))
	if sum != ringBytes {
		t.Fatalf("window ledger %d != entry sum %d after churn", ringBytes, sum)
	}
	if ringLen > maxBlocks || ringBytes > maxBytes {
		t.Fatalf("window over bounds after churn: %d blocks / %d bytes (max %d / %d)",
			ringLen, ringBytes, maxBlocks, maxBytes)
	}

	// Shutdown flushes the plane and purges the windows; any reference the
	// churn failed to release would survive as a live frame.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	testx.NoLeakedFrames(t, b.plane)
	if n := b.plane.LiveBytes(); n != 0 {
		t.Fatalf("LiveBytes = %d after churn + shutdown, want 0", n)
	}
}

// statusGate is a server-side conn that holds the one-byte handshake status
// back until released — the window in which the new member already sits in
// the plane but the client has not been answered yet.
type statusGate struct {
	net.Conn
	release chan struct{}
}

func (g *statusGate) Write(p []byte) (int, error) {
	if len(p) == 1 {
		<-g.release
	}
	return g.Conn.Write(p)
}

// TestEvictionDuringHandshakeFollowsReply forces the handshake/eviction
// interleaving: the subscriber joins, its one-slot queue overflows under
// the Evict policy, and only then does the status byte go out. The client
// must read OK and then "evicted: …" — at the seed the goodbye frame hit the
// wire first and the client misread its 0xEC as a refusal status.
func TestEvictionDuringHandshakeFollowsReply(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 1
		c.Policy = Evict
	})
	client, server := net.Pipe()
	defer client.Close()
	gate := &statusGate{Conn: server, release: make(chan struct{})}
	b.HandleConn(gate)
	hsErr := make(chan error, 1)
	go func() { hsErr <- HandshakeSubscribe(client, "md") }()

	testx.WaitUntil(t, "subscriber registered", func() bool { return b.Subscribers() == 1 })
	for i := 0; i < 3; i++ {
		if err := b.Publish("md", []byte("overflow the one-slot queue")); err != nil {
			t.Fatal(err)
		}
	}
	testx.WaitUntil(t, "eviction", func() bool { return b.Metrics().Counter("broker.evictions").Value() == 1 })
	close(gate.release)

	select {
	case err := <-hsErr:
		if err != nil {
			t.Fatalf("handshake = %v, want OK ahead of the eviction notice", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake never completed")
	}
	var ev *EvictedError
	if err := readUntilError(client, nil); !errors.As(err, &ev) {
		t.Fatalf("stream ended with %v (%T), want *EvictedError", err, err)
	}
	testx.WaitUntil(t, "session gone", func() bool { return b.Subscribers() == 0 })
}

// TestMalformedReplyIsNotARefusal pins the client half: a status byte the
// protocol does not define, or a refusal whose reason is cut short, is a
// damaged reply — not a decision by the broker to refuse the session.
func TestMalformedReplyIsNotARefusal(t *testing.T) {
	for name, reply := range map[string][]byte{
		"unknown status":   {0xEC, 0x40, 0x04},
		"truncated reason": {statusRefuse, 12, 'b', 'u', 's'},
	} {
		t.Run(name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			go func() {
				defer server.Close()
				if _, err := readHandshake(server); err == nil {
					_, _ = server.Write(reply)
				}
			}()
			err := HandshakeSubscribe(client, "md")
			if !errors.Is(err, ErrBadReply) || errors.Is(err, ErrRefused) {
				t.Fatalf("handshake = %v, want ErrBadReply and not ErrRefused", err)
			}
		})
	}
}
