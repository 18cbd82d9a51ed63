package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/testx"
)

// newTestBroker builds a broker with test-friendly defaults; mutate cfg via
// the callback.
func newTestBroker(t *testing.T, mod func(*Config)) *Broker {
	t.Helper()
	cfg := Config{
		Heartbeat: -1, // keep streams deterministic unless a test wants it
	}
	if mod != nil {
		mod(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = b.Shutdown(ctx)
	})
	return b
}

// attachSubscriber connects a pipe subscriber and completes the handshake.
func attachSubscriber(t *testing.T, b *Broker, channel string) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	b.HandleConn(server)
	if err := HandshakeSubscribe(client, channel); err != nil {
		t.Fatalf("subscribe handshake: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// readAllEvents drains event frames from conn until EOF/close, skipping
// heartbeats.
func readAllEvents(conn net.Conn) [][]byte {
	fr := codec.NewFrameReader(conn, nil)
	var events [][]byte
	for {
		data, _, err := fr.ReadBlock()
		if err != nil {
			return events
		}
		if len(data) == 0 {
			continue
		}
		events = append(events, data)
	}
}

// pace holds the caller for d of wall time — for tests whose subject is
// elapsed time itself (a consumer slower than a threshold, pings spaced
// inside a read deadline), not an event they could wait on.
func pace(t testing.TB, d time.Duration) {
	due := time.Now().Add(d)
	testx.WaitUntil(t, "pacing interval", func() bool { return !time.Now().Before(due) })
}

func TestHandshakeRefusesUnknownChannel(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.Channels = []string{"md"} })
	client, server := net.Pipe()
	defer client.Close()
	b.HandleConn(server)
	err := HandshakeSubscribe(client, "secrets")
	if err == nil {
		t.Fatal("handshake on unserved channel must be refused")
	}
}

// TestHandshakeRejectsGarbage: a peer that does not speak the hello — an
// HTTP request, or the retired version-1 and version-2 hellos — is a bad
// handshake, and the broker hangs up without a reply byte.
func TestHandshakeRejectsGarbage(t *testing.T) {
	for name, hello := range map[string]string{
		"http":         "GET / HTTP/1.1\r\n\r\n",
		"v1 subscribe": "CCB\x01S\x02md",
		"v2 resume":    "CCB\x02R\x02md\x2a",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := readHandshake(strings.NewReader(hello)); !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("readHandshake = %v, want ErrBadHandshake", err)
			}
			b := newTestBroker(t, nil)
			client, server := net.Pipe()
			defer client.Close()
			b.HandleConn(server)
			// The write may itself fail once the broker hangs up mid-message —
			// both outcomes are fine; what matters is that the broker
			// disconnects, not wedges, and says nothing first.
			_, _ = client.Write([]byte(hello))
			client.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := client.Read(make([]byte, 64)); n != 0 || err == nil {
				t.Fatalf("read %d reply bytes (err %v), want a bare hang-up", n, err)
			}
		})
	}
}

// TestHandshakeUvarintOverflow: a uvarint that does not fit 64 bits is an
// error on both halves of the handshake, never a silently truncated value.
func TestHandshakeUvarintOverflow(t *testing.T) {
	rep := func(b byte, n int, last ...byte) []byte { return append(bytes.Repeat([]byte{b}, n), last...) }
	for _, tc := range []struct {
		name string
		in   []byte
		want uint64
		ok   bool
	}{
		{"one byte", []byte{0x2A}, 42, true},
		{"max uint64", rep(0xFF, 9, 0x01), math.MaxUint64, true},
		{"tenth byte too large", rep(0x80, 9, 0x7E), 0, false},
		{"all ones then 7e", rep(0xFF, 9, 0x7E), 0, false},
		{"eleven bytes", rep(0xFF, 10, 0x01), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := readUvarint(bytes.NewReader(tc.in))
			if (err == nil) != tc.ok || (tc.ok && v != tc.want) {
				t.Fatalf("readUvarint = %d, %v; want %d, ok=%v", v, err, tc.want, tc.ok)
			}
			// The same bytes as a resume hello's lastSeq.
			hello := append([]byte("CCB\x03R\x02md"), tc.in...)
			hs, err := readHandshake(bytes.NewReader(append(hello, placementDefault)))
			if tc.ok && (err != nil || hs.lastSeq != tc.want) {
				t.Fatalf("hello lastSeq = %d, %v; want %d", hs.lastSeq, err, tc.want)
			}
			if !tc.ok && !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("hello with overflowing lastSeq: %v, want ErrBadHandshake", err)
			}
		})
	}
}

func TestFanOutDeliversToAllSubscribers(t *testing.T) {
	b := newTestBroker(t, nil)
	subs := []net.Conn{
		attachSubscriber(t, b, "md"),
		attachSubscriber(t, b, "md"),
	}
	results := make([][][]byte, len(subs))
	var wg sync.WaitGroup
	for i, conn := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = readAllEvents(conn)
		}()
	}
	var want [][]byte
	for i := 0; i < 5; i++ {
		ev := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
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
	wg.Wait()
	for i, got := range results {
		if len(got) != len(want) {
			t.Fatalf("subscriber %d: %d events, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("subscriber %d event %d differs", i, j)
			}
		}
	}
}

func TestPublishViaNetworkPublisher(t *testing.T) {
	b := newTestBroker(t, nil)
	subConn := attachSubscriber(t, b, "md")
	received := make(chan [][]byte, 1)
	go func() { received <- readAllEvents(subConn) }()

	pubClient, pubServer := net.Pipe()
	b.HandleConn(pubServer)
	if err := HandshakePublish(pubClient, "md"); err != nil {
		t.Fatalf("publish handshake: %v", err)
	}
	want := [][]byte{[]byte("first event"), bytes.Repeat([]byte("xyz"), 500)}
	for _, ev := range want {
		frame, _, err := codec.AppendFrameOpts(nil, nil, codec.LempelZiv, ev, codec.FrameOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pubClient.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// A keepalive frame must not become an event.
	hb, _, err := codec.AppendFrameOpts(nil, nil, codec.None, nil, codec.FrameOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pubClient.Write(hb); err != nil {
		t.Fatal(err)
	}
	pubClient.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := <-received
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
	if n := b.Metrics().Counter("broker.events_in").Value(); n != int64(len(want)) {
		t.Fatalf("events_in = %d, want %d", n, len(want))
	}
}

func TestDropOldestPolicyCountsDrops(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 4
		c.Policy = DropOldest
	})
	conn := attachSubscriber(t, b, "md")
	// The subscriber stalls: nothing reads conn, so the broker's write loop
	// blocks on the first event and the queue backs up.
	const published = 20
	for i := 0; i < published; i++ {
		if err := b.Publish("md", []byte(fmt.Sprintf("event-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	testx.WaitUntil(t, "drops to register", func() bool {
		return b.Metrics().Counter("broker.drops").Value() > 0
	})
	// Resume reading: the straggler stays connected and gets the newest
	// events rather than being cut off.
	received := make(chan [][]byte, 1)
	go func() { received <- readAllEvents(conn) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := <-received
	drops := b.Metrics().Counter("broker.drops").Value()
	if drops == 0 {
		t.Fatal("expected drops under a stalled subscriber")
	}
	if int64(len(got))+drops != published {
		t.Fatalf("received %d + dropped %d != published %d", len(got), drops, published)
	}
	if b.Metrics().Counter("broker.evictions").Value() != 0 {
		t.Fatal("drop-oldest must not evict")
	}
	// The last published event must have survived (gaps eat the oldest).
	if last := got[len(got)-1]; !bytes.Equal(last, []byte("event-19")) {
		t.Fatalf("last event = %q, want event-19", last)
	}
}

func TestEvictPolicyCutsSlowSubscriberOnly(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 8
		c.Policy = Evict
	})
	stalled := attachSubscriber(t, b, "md")
	healthy := attachSubscriber(t, b, "md")
	received := make(chan [][]byte, 1)
	go func() { received <- readAllEvents(healthy) }()
	healthyOut := b.Metrics().Counter("sub.2.bytes_in")

	const published = 40
	for i := 0; i < published; i++ {
		if err := b.Publish("md", bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		// The healthy subscriber keeps up block for block; the stalled one
		// backs up.
		testx.WaitUntil(t, fmt.Sprintf("healthy subscriber took event %d", i),
			func() bool { return healthyOut.Value() == int64(64*(i+1)) })
	}
	testx.WaitUntil(t, "stalled subscriber eviction", func() bool {
		return b.Metrics().Counter("broker.evictions").Value() == 1
	})
	if n := b.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers after eviction, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := <-received; len(got) != published {
		t.Fatalf("healthy subscriber got %d events, want all %d", len(got), published)
	}
	// The evicted peer observes a closed connection.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := stalled.Read(buf); err != nil {
			break
		}
	}
}

func TestHeartbeatKeepsIdleSubscriberWarm(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.Heartbeat = 25 * time.Millisecond })
	conn := attachSubscriber(t, b, "md")
	fr := codec.NewFrameReader(conn, nil)
	beats := 0
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for beats < 2 {
		data, info, err := fr.ReadBlock()
		if err != nil {
			t.Fatalf("after %d heartbeats: %v", beats, err)
		}
		if len(data) != 0 || info.OrigLen != 0 {
			t.Fatalf("idle channel delivered a non-empty frame: %+v", info)
		}
		beats++
	}
}

func TestReadTimeoutEvictsSilentPeer(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.ReadTimeout = 60 * time.Millisecond })
	conn := attachSubscriber(t, b, "md")
	// The client never pings; the broker must declare it dead.
	testx.WaitUntil(t, "silent peer eviction", func() bool {
		return b.Metrics().Counter("broker.evictions").Value() == 1
	})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // connection was closed on us: correct
		}
	}
}

func TestPingsKeepSilentReaderAlive(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.ReadTimeout = 80 * time.Millisecond })
	conn := attachSubscriber(t, b, "md")
	stop := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(stop) {
		if _, err := conn.Write([]byte{0}); err != nil {
			t.Fatalf("ping: %v", err)
		}
		pace(t, 20*time.Millisecond)
	}
	if n := b.Subscribers(); n != 1 {
		t.Fatalf("pinging subscriber was dropped (subscribers=%d)", n)
	}
	if ev := b.Metrics().Counter("broker.evictions").Value(); ev != 0 {
		t.Fatalf("evictions = %d, want 0", ev)
	}
}

func TestShutdownDrainsQueuedEvents(t *testing.T) {
	b := newTestBroker(t, nil)
	conn := attachSubscriber(t, b, "md")
	var want [][]byte
	for i := 0; i < 10; i++ {
		ev := bytes.Repeat([]byte{byte('0' + i)}, 200)
		want = append(want, ev)
		if err := b.Publish("md", ev); err != nil {
			t.Fatal(err)
		}
	}
	// Shutdown races a subscriber that has read nothing yet: every queued
	// event must still arrive before the connection closes.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- b.Shutdown(ctx)
	}()
	testx.WaitUntil(t, "shutdown under way", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	fr := codec.NewFrameReader(conn, nil)
	var got [][]byte
	for {
		data, _, err := fr.ReadBlock()
		if err != nil {
			break
		}
		if len(data) == 0 {
			continue
		}
		got = append(got, data)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("event %d differs after drain", i)
		}
	}
}

// TestPublishAfterCloseQueuesNothing: an in-process publish that races
// Shutdown is either delivered or reported — Publish returning nil is a
// promise the drain keeps, and once the plane is flushed a publisher that
// had already passed the closed check gets ErrClosed, not silence.
func TestPublishAfterCloseQueuesNothing(t *testing.T) {
	b := newTestBroker(t, nil)
	conn := attachSubscriber(t, b, "md")

	// The publisher stays within half a queue of the subscriber, so nothing
	// is shed by the drop policy and every accepted block must arrive.
	window := make(chan struct{}, DefaultQueueLen/2)
	for i := 0; i < cap(window); i++ {
		window <- struct{}{}
	}
	received := make(chan [][]byte, 1)
	go func() {
		fr := codec.NewFrameReader(conn, nil)
		var events [][]byte
		for {
			data, _, err := fr.ReadBlock()
			if err != nil {
				received <- events
				return
			}
			if len(data) > 0 {
				events = append(events, data)
				window <- struct{}{}
			}
		}
	}()
	accepted := make(chan int, 1)
	underWay := make(chan struct{})
	go func() {
		for n := 0; ; n++ {
			select {
			case <-window:
			case <-time.After(5 * time.Second):
				t.Errorf("publisher starved after %d accepted blocks: an accepted block was never delivered", n)
				accepted <- n
				return
			}
			if err := b.Publish("md", []byte(fmt.Sprintf("event-%06d", n))); err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("publish %d: %v, want ErrClosed", n, err)
				}
				accepted <- n
				return
			}
			if n == 8 {
				close(underWay)
			}
		}
	}()
	<-underWay
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	n, got := <-accepted, <-received
	if len(got) != n {
		t.Fatalf("subscriber got %d events, publisher had %d accepted", len(got), n)
	}
	for i, ev := range got {
		if want := fmt.Sprintf("event-%06d", i); string(ev) != want {
			t.Fatalf("event %d = %q, want %q", i, ev, want)
		}
	}

	// The window the race leaves: closed check passed, then Shutdown ran to
	// completion, then the block reaches the channel — on a channel the plane
	// knew and on one it never saw.
	for _, ch := range []string{"md", "never-used"} {
		if err := b.submit(b.state(ch), []byte("too late"), nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit on %q after shutdown = %v, want ErrClosed", ch, err)
		}
	}
	testx.NoLeakedFrames(t, b.plane)
}

// panicCodec "compresses" by truncation and panics on decompression — a
// poisoned codec for exercising panic isolation.
type panicCodec struct{}

func (panicCodec) Method() codec.Method { return codec.FirstCustom }
func (panicCodec) Compress(src []byte) ([]byte, error) {
	out := make([]byte, len(src)/2)
	copy(out, src)
	return out, nil
}
func (panicCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	panic("poisoned codec")
}

func TestPanicInConnectionIsIsolated(t *testing.T) {
	reg := codec.NewRegistry()
	reg.Register(panicCodec{})
	b := newTestBroker(t, func(c *Config) { c.Engine.Registry = reg })

	pubClient, pubServer := net.Pipe()
	defer pubClient.Close()
	b.HandleConn(pubServer)
	if err := HandshakePublish(pubClient, "md"); err != nil {
		t.Fatal(err)
	}
	frame, _, err := codec.AppendFrameOpts(nil, reg, codec.FirstCustom, bytes.Repeat([]byte("x"), 256), codec.FrameOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pubClient.Write(frame); err != nil {
		t.Fatal(err)
	}
	testx.WaitUntil(t, "panic counter", func() bool {
		return b.Metrics().Counter("broker.panics").Value() == 1
	})
	// The broker survives: new sessions still work end to end.
	conn := attachSubscriber(t, b, "md")
	got := make(chan [][]byte, 1)
	go func() { got <- readAllEvents(conn) }()
	if err := b.Publish("md", []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	events := <-got
	if len(events) != 1 || string(events[0]) != "still alive" {
		t.Fatalf("post-panic delivery = %q", events)
	}
}

func TestNewRejectsOversizedBlock(t *testing.T) {
	cfg := Config{}
	cfg.Engine.Selector.BlockSize = codec.MaxFrameLen + 1
	if _, err := New(cfg); err == nil {
		t.Fatal("block size above codec.MaxFrameLen must be rejected")
	}
}

func TestPublishValidation(t *testing.T) {
	b := newTestBroker(t, func(c *Config) { c.Channels = []string{"md"} })
	if err := b.Publish("other", []byte("x")); err == nil {
		t.Fatal("publish to unserved channel must fail")
	}
	if err := b.Publish("md", make([]byte, codec.MaxFrameLen+1)); err == nil {
		t.Fatal("oversized event must fail")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("md", []byte("x")); err != ErrClosed {
		t.Fatalf("publish after shutdown = %v, want ErrClosed", err)
	}
}

// TestBrokerCountsEachProbe publishes n events in process: the broker
// probes each one once, through its engine, so ccx.tx_probes_measured reads
// n with no subscriber attached.
func TestBrokerCountsEachProbe(t *testing.T) {
	const n = 16
	b := newTestBroker(t, func(c *Config) { c.Channels = []string{"md"} })
	for i := 0; i < n; i++ {
		if err := b.Publish("md", bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Metrics().Counter("ccx.tx_probes_measured").Value(); got != n {
		t.Fatalf("ccx.tx_probes_measured = %d after %d publishes, want %d", got, n, n)
	}
}

// idleSubscriberMallocs is the ceiling on heap allocations one idle
// subscriber costs to attach: both ends of its pipe, the handshake, the
// session's state and its goroutines.
const idleSubscriberMallocs = 72

// TestIdleSubscriberAllocs counts what a subscriber costs: it attaches
// pipe subscribers to a warm channel and divides the allocations, and the
// heap still live once they sit idle, by their number. Only the count is
// gated; the retained heap is logged.
func TestIdleSubscriberAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 1000
	b := newTestBroker(t, nil)
	warm := attachSubscriber(t, b, "md")
	if err := b.Publish("md", bytes.Repeat([]byte("warm"), 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := codec.NewFrameReader(warm, nil).ReadBlock(); err != nil {
		t.Fatal(err)
	}
	clients := make([]net.Conn, 0, n)
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		client, server := net.Pipe()
		clients = append(clients, client)
		b.HandleConn(server)
		if err := HandshakeSubscribe(client, "md"); err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
	}
	testx.WaitUntil(t, "every subscriber registered", func() bool { return b.Subscribers() == n+1 })
	runtime.GC()
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	heap := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("per idle subscriber: %.1f allocations, %.1f KB retained heap", mallocs, heap/1e3)
	if mallocs > idleSubscriberMallocs {
		t.Fatalf("%.1f allocations per idle subscriber, want <= %d", mallocs, idleSubscriberMallocs)
	}
}
