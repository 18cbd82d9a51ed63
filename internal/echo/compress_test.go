package echo

import (
	"bytes"
	"math/rand"
	"net"
	"strconv"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

func TestDeriveCompressedLocal(t *testing.T) {
	d := NewDomain()
	src := d.OpenChannel("md.frames")
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 16 * 1024
	e, err := core.NewEngine(core.Config{Selector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := DeriveCompressed(src, "md.frames.z", e)
	if err != nil {
		t.Fatal(err)
	}

	// Make the engine believe the line is slow so it compresses.
	e.Monitor().Observe(16*1024, time.Second)

	payload := datagen.OISTransactions(16*1024, 0.9, 1)
	var gotData []byte
	var gotInfo codec.BlockInfo
	compressed.Subscribe(func(ev Event) {
		data, info, err := DecodeEvent(ev, nil)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		gotData, gotInfo = data, info
		if ev.Attrs[AttrMethod] != info.Method.String() {
			t.Errorf("attr method %q != frame method %v", ev.Attrs[AttrMethod], info.Method)
		}
		if ev.Attrs[AttrOrigLen] != strconv.Itoa(info.OrigLen) {
			t.Errorf("attr origlen %q", ev.Attrs[AttrOrigLen])
		}
	})
	if err := src.Submit(Event{Data: payload}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, payload) {
		t.Fatal("payload mismatch through compressed channel")
	}
	if gotInfo.Method == codec.None {
		t.Fatalf("expected compression on slow line, got %v", gotInfo.Method)
	}
	if gotInfo.CompLen >= gotInfo.OrigLen {
		t.Fatal("no size reduction")
	}
}

func TestDeriveCompressedGoodputFeedback(t *testing.T) {
	d := NewDomain()
	src := d.OpenChannel("s")
	e, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := DeriveCompressed(src, "s.z", e)
	if err != nil {
		t.Fatal(err)
	}
	if e.Monitor().Goodput() != 0 {
		t.Fatal("fresh monitor should be empty")
	}
	// Consumer reports acceptance rate via the quality attribute.
	compressed.SetAttr(AttrGoodput, "2000000")
	if g := e.Monitor().Goodput(); g != 2000000 {
		t.Fatalf("goodput = %v", g)
	}
	// Malformed and irrelevant attributes are ignored.
	compressed.SetAttr(AttrGoodput, "not-a-number")
	compressed.SetAttr("other", "1")
	if g := e.Monitor().Goodput(); g != 2000000 {
		t.Fatalf("goodput polluted: %v", g)
	}
}

func TestSubscribeDecompressed(t *testing.T) {
	d := NewDomain()
	src := d.OpenChannel("s")
	e, _ := core.NewEngine(core.Config{})
	compressed, _ := DeriveCompressed(src, "s.z", e)
	var payloads [][]byte
	SubscribeDecompressed(compressed, nil, 2, func(data []byte, info codec.BlockInfo) {
		payloads = append(payloads, data)
	})
	for i := 0; i < 4; i++ {
		src.Submit(Event{Data: datagen.OISTransactions(4096, 0.9, int64(i))})
	}
	if len(payloads) != 4 {
		t.Fatalf("delivered %d", len(payloads))
	}
	// Feedback fired at least once (every 2 events).
	if _, ok := compressed.Attr(AttrGoodput); !ok {
		t.Fatal("no goodput feedback attr")
	}
}

// TestDeriveCompressedOversizeEvent submits one event longer than a frame
// may carry: on a fast and on a slow line the subscriber receives exactly
// its bytes, through DeriveCompressed's raw fallback.
func TestDeriveCompressedOversizeEvent(t *testing.T) {
	payload := datagen.OISTransactions(codec.MaxFrameLen+8, 0.9, 1)
	lines := []struct {
		name  string
		bytes int
		took  time.Duration
	}{
		{"fast", 1 << 30, time.Millisecond},
		{"slow", 16 << 10, time.Second},
	}
	for _, line := range lines {
		t.Run(line.name, func(t *testing.T) {
			src := NewDomain().OpenChannel("s")
			e, err := core.NewEngine(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			compressed, err := DeriveCompressed(src, "s.z", e)
			if err != nil {
				t.Fatal(err)
			}
			e.Monitor().Observe(line.bytes, line.took)
			var got [][]byte
			SubscribeDecompressed(compressed, nil, 0, func(data []byte, _ codec.BlockInfo) {
				got = append(got, data)
			})
			if err := src.Submit(Event{Data: payload}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || !bytes.Equal(got[0], payload) {
				sizes := make([]int, len(got))
				for i, g := range got {
					sizes[i] = len(g)
				}
				t.Fatalf("delivered sizes %v, want one event of %d bytes", sizes, len(payload))
			}
		})
	}
}

// TestBridgeCarriesMaxEventData submits one event of MaxEventData
// incompressible bytes on a fast line, where the derived channel frames it
// raw: both the source channel and the derived channel deliver its exact
// bytes across a bridge, and the bridge stays up.
func TestBridgeCarriesMaxEventData(t *testing.T) {
	d1, b1, _, b2 := bridgePair(t)
	e, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := d1.OpenChannel("s")
	derived, err := DeriveCompressed(src, "s.z", e)
	if err != nil {
		t.Fatal(err)
	}
	e.Monitor().Observe(1<<30, time.Millisecond)
	got := make(chan []byte, 2)
	raw, err := b2.ImportChannel("s")
	if err != nil {
		t.Fatal(err)
	}
	raw.Subscribe(func(ev Event) { got <- ev.Data })
	compressed, err := b2.ImportChannel("s.z")
	if err != nil {
		t.Fatal(err)
	}
	SubscribeDecompressed(compressed, nil, 0, func(data []byte, _ codec.BlockInfo) { got <- data })
	testx.WaitUntil(t, "both export subscriptions", func() bool {
		return src.Subscribers() == 2 && derived.Subscribers() == 1
	})
	payload := make([]byte, MaxEventData)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := src.Submit(Event{Data: payload}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		select {
		case data := <-got:
			if !bytes.Equal(data, payload) {
				t.Fatalf("delivered %d bytes, want the %d sent", len(data), len(payload))
			}
		case <-b1.Done():
			t.Fatalf("bridge ended: %v", b1.Err())
		case <-time.After(10 * time.Second):
			t.Fatal("event never arrived")
		}
	}
}

func TestDecodeEventRawFallback(t *testing.T) {
	ev := Event{
		Data:  []byte("plain payload"),
		Attrs: Attributes{AttrMethod: codec.None.String()},
	}
	data, info, err := DecodeEvent(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "plain payload" || info.Method != codec.None {
		t.Fatalf("got %q %+v", data, info)
	}
}

// TestCompressedChannelAcrossBridge is the full §3.2 picture: producer and
// consumer in different address spaces, a derived compression channel on
// the producer side, events flowing across the transport encapsulation
// layer, and quality attributes flowing back upstream.
func TestCompressedChannelAcrossBridge(t *testing.T) {
	c1, c2 := net.Pipe()
	prodDomain, consDomain := NewDomain(), NewDomain()
	b1 := NewBridge(prodDomain, c1)
	b2 := NewBridge(consDomain, c2)
	defer func() {
		b1.Close()
		b2.Close()
		<-b1.Done()
		<-b2.Done()
	}()

	cfg := selector.DefaultConfig()
	cfg.BlockSize = 16 * 1024
	e, err := core.NewEngine(core.Config{Selector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	raw := prodDomain.OpenChannel("ois.txns")
	if _, err := DeriveCompressed(raw, "ois.txns.z", e); err != nil {
		t.Fatal(err)
	}
	// Slow-line belief → compression on.
	e.Monitor().Observe(16*1024, time.Second)

	imported, err := b2.ImportChannel("ois.txns.z")
	if err != nil {
		t.Fatal(err)
	}
	type rx struct {
		data []byte
		info codec.BlockInfo
	}
	got := make(chan rx, 16)
	SubscribeDecompressed(imported, nil, 0, func(data []byte, info codec.BlockInfo) {
		got <- rx{data, info}
	})

	testx.WaitUntil(t, "the bridge subscription on the producer side", func() bool {
		ch, ok := prodDomain.Channel("ois.txns.z")
		return ok && ch.Subscribers() > 0
	})

	payload := datagen.OISTransactions(16*1024, 0.9, 3)
	if err := raw.Submit(Event{Data: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !bytes.Equal(r.data, payload) {
			t.Fatal("payload mismatch across bridge")
		}
		if r.info.Method == codec.None {
			t.Fatalf("expected compressed method, got %v", r.info.Method)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never arrived")
	}

	// Upstream feedback: consumer reports goodput; producer's monitor sees it
	// once the EWMA has folded the report in.
	imported.SetAttr(AttrGoodput, "123456")
	testx.WaitUntil(t, "goodput feedback at the producer", func() bool {
		g := e.Monitor().Goodput()
		return g > 0 && g != float64(16*1024)
	})
}
