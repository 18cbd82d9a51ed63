package echo

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/testx"
)

// bridgePair wires two domains over an in-memory duplex connection.
func bridgePair(t *testing.T) (*Domain, *Bridge, *Domain, *Bridge) {
	t.Helper()
	c1, c2 := net.Pipe()
	d1, d2 := NewDomain(), NewDomain()
	b1 := NewBridge(d1, c1)
	b2 := NewBridge(d2, c2)
	t.Cleanup(func() {
		b1.Close()
		b2.Close()
		<-b1.Done()
		<-b2.Done()
	})
	return d1, b1, d2, b2
}

type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) add(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *collector) at(i int) Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events[i]
}

func TestBridgeEventFlow(t *testing.T) {
	d1, _, _, b2 := bridgePair(t)

	// Producer lives in d1; consumer imports the channel through b2.
	prod := d1.OpenChannel("stream")
	cons, err := b2.ImportChannel("stream")
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	cons.Subscribe(got.add)

	// The subscribe message must reach d1 before events flow.
	testx.WaitUntil(t, "export subscription", func() bool { return prod.Subscribers() > 0 })
	prod.Submit(Event{Data: []byte("payload-1"), Attrs: Attributes{"seq": "1"}})
	prod.Submit(Event{Data: []byte("payload-2")})
	testx.WaitUntil(t, "events", func() bool { return got.len() == 2 })
	if string(got.at(0).Data) != "payload-1" || got.at(0).Attrs["seq"] != "1" {
		t.Fatalf("event 0 = %+v", got.at(0))
	}
	if string(got.at(1).Data) != "payload-2" {
		t.Fatalf("event 1 = %+v", got.at(1))
	}
}

func TestBridgeMultiplexesChannels(t *testing.T) {
	d1, _, _, b2 := bridgePair(t)
	chA := d1.OpenChannel("a")
	chB := d1.OpenChannel("b")
	impA, _ := b2.ImportChannel("a")
	impB, _ := b2.ImportChannel("b")
	var gotA, gotB collector
	impA.Subscribe(gotA.add)
	impB.Subscribe(gotB.add)
	testx.WaitUntil(t, "exports", func() bool { return chA.Subscribers() > 0 && chB.Subscribers() > 0 })
	for i := 0; i < 10; i++ {
		chA.Submit(Event{Data: []byte{'a', byte(i)}})
		chB.Submit(Event{Data: []byte{'b', byte(i)}})
	}
	testx.WaitUntil(t, "deliveries", func() bool { return gotA.len() == 10 && gotB.len() == 10 })
	for i := 0; i < 10; i++ {
		if gotA.at(i).Data[0] != 'a' || gotB.at(i).Data[0] != 'b' {
			t.Fatal("channels crossed")
		}
	}
}

func TestBridgeAttributePropagation(t *testing.T) {
	d1, _, _, b2 := bridgePair(t)
	prod := d1.OpenChannel("stream")
	cons, _ := b2.ImportChannel("stream")
	testx.WaitUntil(t, "export", func() bool { return prod.Subscribers() > 0 })

	// Producer watches for consumer-side instructions (the §3.2 flow where
	// the consumer informs the source of a method change via attributes).
	type kv struct{ k, v string }
	var mu sync.Mutex
	var seen []kv
	prod.WatchAttrs(func(k, v string) {
		mu.Lock()
		seen = append(seen, kv{k, v})
		mu.Unlock()
	})
	cons.SetAttr("ccx.method", "burrows-wheeler")
	testx.WaitUntil(t, "attr", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == 1
	})
	mu.Lock()
	if seen[0].k != "ccx.method" || seen[0].v != "burrows-wheeler" {
		t.Fatalf("seen = %+v", seen)
	}
	mu.Unlock()
	// And it is readable as state on the producer side.
	testx.WaitUntil(t, "attr state", func() bool {
		v, ok := prod.Attr("ccx.method")
		return ok && v == "burrows-wheeler"
	})
}

func TestBridgeNoEchoLoop(t *testing.T) {
	// Both sides import the same channel; a submit on one side must arrive
	// exactly once on the other and not bounce back.
	d1, b1, d2, b2 := bridgePair(t)
	ch1, _ := b1.ImportChannel("shared")
	ch2, _ := b2.ImportChannel("shared")
	testx.WaitUntil(t, "exports both ways", func() bool {
		return ch1.Subscribers() > 0 && ch2.Subscribers() > 0
	})
	var got1, got2 collector
	ch1.Subscribe(got1.add)
	ch2.Subscribe(got2.add)
	ch1.Submit(Event{Data: []byte("ping")})
	testx.WaitUntil(t, "delivery", func() bool { return got2.len() == 1 })
	// Each direction is in order, so a ping bounced back by side 2 would
	// reach side 1 before the pong side 2 submits after it.
	ch2.Submit(Event{Data: []byte("pong")})
	testx.WaitUntil(t, "pong", func() bool { return got1.len() >= 2 })
	// Local submit delivers locally once, remotely once — no storm.
	for side, got := range []*collector{&got1, &got2} {
		if got.len() != 2 || string(got.at(0).Data) != "ping" || string(got.at(1).Data) != "pong" {
			t.Fatalf("loop: side %d got %d events, want [ping pong]", side+1, got.len())
		}
	}
	_ = d1
	_ = d2
}

func TestBridgeCloseUnblocks(t *testing.T) {
	c1, c2 := net.Pipe()
	d1, d2 := NewDomain(), NewDomain()
	b1 := NewBridge(d1, c1)
	b2 := NewBridge(d2, c2)
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b1.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("b1 read loop did not exit")
	}
	select {
	case <-b2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("b2 did not notice peer hangup")
	}
	if err := b1.Err(); err != nil {
		t.Fatalf("clean close reported %v", err)
	}
	b2.Close()
}

func TestBridgeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d1, d2 := NewDomain(), NewDomain()
	accepted := make(chan *Bridge, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- NewBridge(d1, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBridge(d2, conn)
	defer b2.Close()
	b1 := <-accepted
	defer b1.Close()

	prod := d1.OpenChannel("tcp.stream")
	cons, _ := b2.ImportChannel("tcp.stream")
	var got collector
	cons.Subscribe(got.add)
	testx.WaitUntil(t, "export", func() bool { return prod.Subscribers() > 0 })
	payload := make([]byte, 100000)
	for i := range payload {
		payload[i] = byte(i)
	}
	prod.Submit(Event{Data: payload})
	testx.WaitUntil(t, "large event", func() bool { return got.len() == 1 })
	if len(got.at(0).Data) != len(payload) {
		t.Fatalf("payload size = %d", len(got.at(0).Data))
	}
}

// TestBridgeAbruptPeerHangup kills the transport underneath a bridge —
// no Close, no unsubscribe protocol — and verifies the exporting side
// tears down its subscriptions and goroutines instead of leaking them
// into the channel's delivery path.
func TestBridgeAbruptPeerHangup(t *testing.T) {
	baseline := runtime.NumGoroutine()

	c1, c2 := net.Pipe()
	d1, d2 := NewDomain(), NewDomain()
	b1 := NewBridge(d1, c1) // exporter
	b2 := NewBridge(d2, c2) // importer, about to die
	defer b1.Close()

	ch2, err := b2.ImportChannel("feed")
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	ch2.Subscribe(got.add)
	ch1 := d1.OpenChannel("feed")
	testx.WaitUntil(t, "export subscription", func() bool { return ch1.Subscribers() == 1 })

	// One event flows while the peer is healthy.
	if err := ch1.Submit(Event{Data: []byte("mid-stream")}); err != nil {
		t.Fatal(err)
	}
	testx.WaitUntil(t, "event delivery", func() bool { return got.len() == 1 })

	// The peer vanishes mid-conversation: the raw conn closes with no
	// protocol goodbye.
	c2.Close()
	select {
	case <-b1.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("exporter read loop never noticed the hangup")
	}
	if err := b1.Err(); err != nil {
		t.Fatalf("abrupt hangup should read as clean EOF, got %v", err)
	}

	// The dead peer's subscription must be gone from the channel...
	testx.WaitUntil(t, "subscription teardown", func() bool { return ch1.Subscribers() == 0 })
	// ...so further submits touch nobody.
	if err := ch1.Submit(Event{Data: []byte("after hangup")}); err != nil {
		t.Fatal(err)
	}
	if got.len() != 1 {
		t.Fatalf("dead subscriber still received events: %d", got.len())
	}

	// And both bridges' goroutines exited (b2's loop died with its conn).
	testx.WaitUntil(t, "goroutine cleanup", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}

// message builds one bridge message the way a peer's send does.
func message(t testing.TB, typ byte, channel string, body []byte) []byte {
	t.Helper()
	anno := codec.AppendAnnoRecord(nil, codec.AnnoKindEcho, append([]byte{typ}, channel...))
	frame, _, err := codec.AppendFrameOpts(nil, nil, codec.None, body, codec.FrameOpts{Anno: anno})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBridgeHostileLength sends a header that declares a long message with
// nothing behind it, or an event that declares more attributes than it
// holds, then hangs up: the bridge allocates at most what the frame bound
// lets it read and copy, and Err reports the stream as broken instead of
// closed cleanly.
func TestBridgeHostileLength(t *testing.T) {
	full := message(t, msgEvent, "c", make([]byte, codec.MaxFrameLen))
	// As many empty attributes as the body has byte pairs: every check on
	// the stream passes, and the count alone would size the map.
	pairs := make([]byte, codec.MaxFrameLen)
	binary.PutUvarint(pairs, (codec.MaxFrameLen-4)/2)
	cases := []struct {
		name  string
		msg   []byte
		bound uint64
	}{
		// A type byte and a 64 MiB uvarint length: no frame magic.
		{"uvarint header", binary.AppendUvarint([]byte{msgEvent}, 64<<20), codec.MaxFrameLen + 1<<20},
		// A frame header whose payload is MaxFrameLen bytes, none sent.
		{"frame header", full[:len(full)-codec.MaxFrameLen], codec.MaxFrameLen + 1<<20},
		// A whole frame is read into the reader's scratch and copied out.
		{"attribute count", message(t, msgEvent, "c", pairs), 2*codec.MaxFrameLen + 1<<20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b := NewBridge(NewDomain(), c1)
			if _, err := c2.Write(tc.msg); err != nil {
				t.Fatal(err)
			}
			c2.Close()
			<-b.Done()
			runtime.ReadMemStats(&after)
			b.Close()
			if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.bound {
				t.Errorf("%d bytes sent allocated %d bytes, want at most %d", len(tc.msg), grew, tc.bound)
			}
			if b.Err() == nil {
				t.Error("a broken stream read as a clean close")
			}
		})
	}
}

// TestBridgeForwardFailureEndsBridge holds that a message the bridge cannot
// send on the export or the attribute path ends the bridge, and that Err
// names the cause instead of the failure passing silently.
func TestBridgeForwardFailureEndsBridge(t *testing.T) {
	check := func(t *testing.T, b *Bridge) {
		t.Helper()
		select {
		case <-b.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("bridge kept running after a failed send")
		}
		if err := b.Err(); err == nil || !strings.Contains(err.Error(), "MaxFrameLen") {
			t.Fatalf("Err() = %v, want the frame bound named", err)
		}
	}
	t.Run("export", func(t *testing.T) {
		d1, b1, _, b2 := bridgePair(t)
		prod := d1.OpenChannel("big")
		if _, err := b2.ImportChannel("big"); err != nil {
			t.Fatal(err)
		}
		testx.WaitUntil(t, "export subscription", func() bool { return prod.Subscribers() > 0 })
		prod.Submit(Event{Data: make([]byte, codec.MaxFrameLen+1)})
		check(t, b1)
	})
	t.Run("attribute", func(t *testing.T) {
		_, _, _, b2 := bridgePair(t)
		cons, err := b2.ImportChannel("big")
		if err != nil {
			t.Fatal(err)
		}
		cons.SetAttr("k", strings.Repeat("x", codec.MaxFrameLen))
		check(t, b2)
	})
}

// FuzzBridgeNeverPanics feeds arbitrary bytes to a bridge as its peer's
// stream: whatever arrives, the bridge ends without a panic.
func FuzzBridgeNeverPanics(f *testing.F) {
	attr := appendString(appendString(nil, "k"), "v")
	event := append(binary.AppendUvarint(nil, 1), attr...)
	f.Add(message(f, msgSubscribe, "c", nil))
	f.Add(message(f, msgEvent, "c", append(event, "data"...)))
	f.Add(message(f, msgAttr, "c", attr))
	// An attribute then a subscribe: the late joiner's sync answers.
	f.Add(append(message(f, msgAttr, "c", attr), message(f, msgSubscribe, "c", nil)...))
	f.Add(binary.AppendUvarint([]byte{msgEvent}, 64<<20))
	trace := codec.AppendAnnoRecord(nil, codec.AnnoKindTrace, []byte{1, 2, 3})
	other, _, _ := codec.AppendFrameOpts(nil, nil, codec.None, []byte("x"), codec.FrameOpts{Anno: trace})
	f.Add(other)
	f.Fuzz(func(t *testing.T, data []byte) {
		c1, c2 := net.Pipe()
		b := NewBridge(NewDomain(), c1)
		go io.Copy(io.Discard, c2) // whatever the bridge answers; ends with c2
		wrote := make(chan struct{})
		go func() {
			c2.Write(data)
			c2.Close()
			close(wrote)
		}()
		<-b.Done()
		b.Close() // unblocks the writer if the bridge stopped reading first
		<-wrote
	})
}
