package broker

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// readAllFrames drains event frames from conn until EOF/close, skipping
// heartbeats, and keeps each frame's wire method alongside its payload.
func readAllFrames(conn net.Conn) (events [][]byte, methods []codec.Method) {
	fr := codec.NewFrameReader(conn, nil)
	for {
		data, info, err := fr.ReadBlock()
		if err != nil {
			return events, methods
		}
		if len(data) == 0 {
			continue
		}
		events = append(events, data)
		methods = append(methods, info.Method)
	}
}

// TestPlacementReceiverShipsRaw pins receiver-side placement as the broker
// default: every frame toward a non-advertising subscriber must be
// Method None with byte-identical payloads, even for data the method
// selector would otherwise love to compress.
func TestPlacementReceiverShipsRaw(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.Placement = selector.PlacementReceiver })
	conn := attachSubscriber(t, b, "md")
	done := make(chan struct{})
	var events [][]byte
	var methods []codec.Method
	go func() {
		defer close(done)
		events, methods = readAllFrames(conn)
	}()
	var want [][]byte
	for i := 0; i < 8; i++ {
		ev := bytes.Repeat([]byte{byte('a' + i)}, 4096) // maximally compressible
		want = append(want, ev)
		if err := b.Publish("md", ev); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for i := range want {
		if !bytes.Equal(events[i], want[i]) {
			t.Fatalf("event %d differs", i)
		}
		if methods[i] != codec.None {
			t.Fatalf("event %d shipped as %s, want None under receiver placement", i, methods[i])
		}
	}
	if n := b.Metrics().Counter("ccx.tx_placement.receiver").Value(); n != int64(len(want)) {
		t.Fatalf("ccx.tx_placement.receiver = %d, want one per delivered block (%d)", n, len(want))
	}
}

// TestPlacementAdvertOverridesDefault lets a subscriber advertise receiver
// placement against a publisher-default broker; its session must run raw
// while a non-advertising subscriber on the same channel keeps the default.
func TestPlacementAdvertOverridesDefault(t *testing.T) {
	b := newTestBroker(t, nil) // default placement: publisher (broker encodes)
	client, server := net.Pipe()
	b.HandleConn(server)
	if err := HandshakeSubscribePlacement(client, "md", selector.PlacementReceiver); err != nil {
		t.Fatalf("placement handshake: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	done := make(chan struct{})
	var events [][]byte
	var methods []codec.Method
	go func() {
		defer close(done)
		events, methods = readAllFrames(client)
	}()
	var want [][]byte
	for i := 0; i < 6; i++ {
		ev := bytes.Repeat([]byte("abcd"), 1024)
		want = append(want, ev)
		if err := b.Publish("md", ev); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for i := range want {
		if !bytes.Equal(events[i], want[i]) {
			t.Fatalf("event %d differs", i)
		}
		if methods[i] != codec.None {
			t.Fatalf("event %d shipped as %s, want None for advertised receiver placement",
				i, methods[i])
		}
	}
}

// TestPlacementUnknownByteDegrades sends a hand-crafted hello with a
// placement byte the broker has never heard of. The regression contract
// (see readHandshake) is degrade-don't-refuse: the session is accepted as
// publisher-side, events flow byte-identically, and the degradation is
// counted so operators can see the version skew.
func TestPlacementUnknownByteDegrades(t *testing.T) {
	b := newTestBroker(t, nil)
	client, server := net.Pipe()
	b.HandleConn(server)
	t.Cleanup(func() { client.Close() })
	hello := appendHello(nil, RoleSubscribe, "md", 0, 'Q') // unknown placement byte
	if _, err := client.Write(hello); err != nil {
		t.Fatalf("hello write: %v", err)
	}
	var status [1]byte
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(status[:]); err != nil {
		t.Fatalf("status read: %v", err)
	}
	if status[0] != statusOK {
		t.Fatalf("status = %d, want accept: unknown placement must degrade, not refuse", status[0])
	}
	client.SetReadDeadline(time.Time{})
	done := make(chan struct{})
	var events [][]byte
	go func() {
		defer close(done)
		events, _ = readAllFrames(client)
	}()
	ev := []byte("degraded but delivered")
	if err := b.Publish("md", ev); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if len(events) != 1 || !bytes.Equal(events[0], ev) {
		t.Fatalf("got %d events, want the published one intact", len(events))
	}
	if n := b.Metrics().Counter("broker.placement_degraded").Value(); n != 1 {
		t.Fatalf("placement_degraded = %d, want 1", n)
	}
}

// TestPlacementHelloAccounting pins which hellos the placement counters
// see: the short-name calls state no preference, so they neither degrade
// nor count as a publisher advert; only an explicit advert registers
// broker.pub_placement.*, and only an unknown byte counts as degraded.
func TestPlacementHelloAccounting(t *testing.T) {
	var attached atomic.Int32 // publishers past the point where an advert is counted
	b := newTestBroker(t, func(c *Config) {
		c.Placement = selector.PlacementAuto
		c.Logf = func(format string, _ ...any) {
			if strings.Contains(format, "publisher attached") {
				attached.Add(1)
			}
		}
	})
	dial := func(hello func(net.Conn) error) {
		t.Helper()
		client, server := net.Pipe()
		t.Cleanup(func() { client.Close() })
		b.HandleConn(server)
		if err := hello(client); err != nil {
			t.Fatal(err)
		}
	}
	dial(func(c net.Conn) error { return HandshakeSubscribe(c, "md") })
	dial(func(c net.Conn) error { _, err := HandshakeResume(c, "md", 0); return err })
	dial(func(c net.Conn) error { return HandshakePublish(c, "md") })
	dial(func(c net.Conn) error { return HandshakePublishPlacement(c, "md", selector.PlacementBroker) })
	testx.WaitUntil(t, "both publishers attached", func() bool { return attached.Load() == 2 })
	var adverts []string
	for _, v := range b.Metrics().Views() {
		if strings.HasPrefix(v.Name, "broker.pub_placement.") {
			adverts = append(adverts, v.Name)
		}
	}
	if len(adverts) != 1 || adverts[0] != "broker.pub_placement.broker" || b.Metrics().Counter(adverts[0]).Value() != 1 {
		t.Fatalf("publisher adverts counted: %v, want broker.pub_placement.broker once", adverts)
	}
	if n := b.Metrics().Counter("broker.placement_degraded").Value(); n != 0 {
		t.Fatalf("placement_degraded = %d with no unknown byte sent", n)
	}
}

// TestPlacementResumeCarriesPlacement resumes with an advertised receiver
// placement: the replay backlog and the live stream must both arrive raw.
func TestPlacementResumeCarriesPlacement(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.ReplayBlocks = 64 })
	var want [][]byte
	for i := 0; i < 4; i++ {
		ev := bytes.Repeat([]byte{byte('r' + i)}, 2048)
		want = append(want, ev)
		if err := b.Publish("md", ev); err != nil {
			t.Fatal(err)
		}
	}
	client, server := net.Pipe()
	b.HandleConn(server)
	t.Cleanup(func() { client.Close() })
	firstSeq, err := HandshakeResumePlacement(client, "md", 0, selector.PlacementReceiver)
	if err != nil {
		t.Fatalf("resume handshake: %v", err)
	}
	if firstSeq != 1 {
		t.Fatalf("firstSeq = %d, want 1", firstSeq)
	}
	done := make(chan struct{})
	var events [][]byte
	var methods []codec.Method
	go func() {
		defer close(done)
		events, methods = readAllFrames(client)
	}()
	live := bytes.Repeat([]byte("live"), 512)
	want = append(want, live)
	if err := b.Publish("md", live); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for i := range want {
		if !bytes.Equal(events[i], want[i]) {
			t.Fatalf("event %d differs", i)
		}
		if methods[i] != codec.None {
			t.Fatalf("event %d shipped as %s, want None", i, methods[i])
		}
	}
}

// TestBatchCountsEachFramePlacement sends one vectored batch whose blocks
// sit on either side of auto placement's break-even: the compressible
// block is offloaded to the receiver, the incompressible one stays
// broker-side. Each written frame must be counted under its own decision,
// not under the last one the batch made.
func TestBatchCountsEachFramePlacement(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.Placement = selector.PlacementAuto
		// Any compressible block outruns the codec on this link.
		c.Engine.Placement.OffloadFactor = 1e9
	})
	conn := attachSubscriber(t, b, "md")
	rng := rand.New(rand.NewSource(1))
	random := func() []byte {
		p := make([]byte, 4096)
		rng.Read(p)
		return p
	}
	// The first block is decided unmeasured (broker-side) and its write
	// gives the path a goodput sample.
	if err := b.Publish("md", random()); err != nil {
		t.Fatal(err)
	}
	fr := codec.NewFrameReader(conn, nil)
	if _, _, err := fr.ReadBlock(); err != nil {
		t.Fatal(err)
	}
	// Nobody reads now, so the write loop blocks on the next frame while
	// the two after it queue up behind it and go out as one batch.
	blocks := [][]byte{random(), bytes.Repeat([]byte("abcd"), 1024), random()}
	for _, p := range blocks {
		if err := b.Publish("md", p); err != nil {
			t.Fatal(err)
		}
	}
	met := b.Metrics()
	delivered := met.Counter("encplane.deliveries")
	testx.WaitUntil(t, "every block in the subscriber's queue", func() bool { return delivered.Value() >= 4 })
	done := make(chan struct{})
	var events [][]byte
	go func() {
		defer close(done)
		events, _ = readAllFrames(conn)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if len(events) != len(blocks) {
		t.Fatalf("%d events after the first, want %d", len(events), len(blocks))
	}
	if n := met.Counter("broker.writev_batches").Value(); n < 1 {
		t.Fatal("no vectored batch written")
	}
	if rcv, brk := met.Counter("ccx.tx_placement.receiver").Value(), met.Counter("ccx.tx_placement.broker").Value(); rcv != 1 || brk != 3 {
		t.Fatalf("placements counted receiver=%d broker=%d, want 1 and 3", rcv, brk)
	}
}
