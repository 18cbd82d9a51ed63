// Package integration exercises whole-system flows across package
// boundaries: adaptive streams over simulated and real transports, the
// middleware path across address spaces, and the failure modes DESIGN.md
// §7 calls out (mid-stream corruption, truncation, link flap, receiver
// slowdown).
package integration

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/echo"
	"ccx/internal/netsim"
	"ccx/internal/selector"
	"ccx/internal/testx"
	"ccx/internal/trace"
)

func newEngine(t *testing.T, blockSize int) *core.Engine {
	t.Helper()
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	e, err := core.NewEngine(core.Config{Selector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLinkFlapAdaptation drives a session across repeated load flaps and
// verifies (a) every byte survives, (b) the engine actually switches
// methods in both directions.
func TestLinkFlapAdaptation(t *testing.T) {
	clk := netsim.NewVirtual()
	link := netsim.NewLink(netsim.Fast100, clk, 17)
	flapped := false
	blockCount := 0
	link.SetLoad(func(time.Time) float64 {
		if flapped {
			return 0.98
		}
		return 0
	})

	tick := time.Unix(0, 0)
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 32 << 10
	engine, err := core.NewEngine(core.Config{
		Selector:   cfg,
		Now:        func() time.Time { tick = tick.Add(time.Millisecond); return tick },
		SpeedScale: (0.7 * 4096 / 0.001) / 2.2e6, // paper-CPU regime
	})
	if err != nil {
		t.Fatal(err)
	}

	data := datagen.OISTransactions(cfg.BlockSize*40, 0.9, 3)
	var wire bytes.Buffer
	send := func(frame []byte) (time.Duration, error) {
		wire.Write(frame)
		blockCount++
		if blockCount%8 == 0 {
			flapped = !flapped // flap every 8 blocks
		}
		return link.Send(len(frame)), nil
	}
	s := core.NewSession(engine)
	results, err := s.Stream(data, send, nil)
	if err != nil {
		t.Fatal(err)
	}

	transitions := 0
	for i := 1; i < len(results); i++ {
		a := results[i-1].Decision.Method != codec.None
		b := results[i].Decision.Method != codec.None
		if a != b {
			transitions++
		}
	}
	if transitions < 3 {
		t.Fatalf("only %d compression on/off transitions across flaps", transitions)
	}

	// Full stream must decode exactly.
	fr := codec.NewFrameReader(&wire, nil)
	var got bytes.Buffer
	for got.Len() < len(data) {
		block, _, err := fr.ReadBlock()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(block)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("flapped stream did not roundtrip")
	}
}

// TestMidStreamCorruptionIsolated corrupts one frame of a multi-frame
// stream: every earlier block must decode intact and the damage must be
// detected exactly at the corrupted frame.
func TestMidStreamCorruptionIsolated(t *testing.T) {
	engine := newEngine(t, 8<<10)
	engine.Monitor().Observe(8<<10, time.Second) // slow-line belief → compression

	data := datagen.OISTransactions(80<<10, 0.9, 5)
	var wire bytes.Buffer
	var offsets []int
	s := core.NewSession(engine)
	if _, err := s.Stream(data, func(frame []byte) (time.Duration, error) {
		offsets = append(offsets, wire.Len())
		wire.Write(frame)
		return time.Millisecond, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if len(offsets) < 5 {
		t.Fatalf("only %d frames", len(offsets))
	}
	raw := wire.Bytes()
	// Flip a byte inside the 4th frame's payload.
	corruptAt := offsets[3] + 20
	raw[corruptAt] ^= 0x40

	fr := codec.NewFrameReader(bytes.NewReader(raw), nil)
	var decoded int
	for {
		block, _, err := fr.ReadBlock()
		if err != nil {
			if decoded != 3 {
				t.Fatalf("error after %d blocks, want 3", decoded)
			}
			break
		}
		if !bytes.Equal(block, data[decoded*(8<<10):decoded*(8<<10)+len(block)]) {
			t.Fatalf("block %d content wrong", decoded)
		}
		decoded++
		if decoded > 3 {
			t.Fatal("corrupted frame decoded cleanly")
		}
	}
}

// TestTruncationAtEveryBoundary truncates a compressed stream at many
// points; the reader must fail cleanly (no panic, no silent wrong data).
func TestTruncationAtEveryBoundary(t *testing.T) {
	engine := newEngine(t, 4<<10)
	engine.Monitor().Observe(4<<10, time.Second)
	data := datagen.OISTransactions(20<<10, 0.9, 7)
	var wire bytes.Buffer
	s := core.NewSession(engine)
	if _, err := s.Stream(data, func(frame []byte) (time.Duration, error) {
		wire.Write(frame)
		return time.Millisecond, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	for cut := 0; cut < len(raw); cut += 97 {
		fr := codec.NewFrameReader(bytes.NewReader(raw[:cut]), nil)
		var rebuilt []byte
		var err error
		for {
			var block []byte
			block, _, err = fr.ReadBlock()
			if err != nil {
				break
			}
			rebuilt = append(rebuilt, block...)
		}
		if err == io.EOF {
			// Clean EOF is only legal at a frame boundary; whatever decoded
			// must be a prefix of the original.
			if !bytes.HasPrefix(data, rebuilt) {
				t.Fatalf("cut %d: clean EOF with wrong data", cut)
			}
		}
	}
}

// TestGarbageStreamNeverPanics throws random bytes at the frame reader.
func TestGarbageStreamNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		junk := make([]byte, rng.Intn(4096))
		rng.Read(junk)
		// Sometimes make it look frame-ish.
		if trial%3 == 0 && len(junk) > 2 {
			junk[0], junk[1] = 0xEC, 0x40
		}
		fr := codec.NewFrameReader(bytes.NewReader(junk), nil)
		for {
			if _, _, err := fr.ReadBlock(); err != nil {
				break
			}
		}
	}
}

// TestReceiverSlowdownOverTCP verifies the end-to-end loop on a real
// socket: when the receiver drains slowly, backpressure drives the sender
// into compression.
func TestReceiverSlowdownOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		r := core.NewReader(conn, nil, nil)
		var out bytes.Buffer
		buf := make([]byte, 4<<10)
		for {
			n, err := r.Read(buf)
			out.Write(buf[:n])
			time.Sleep(12 * time.Millisecond) // persistently slow consumer
			if err != nil {
				break
			}
		}
		done <- out.Bytes()
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(16 << 10)
	}
	engine := newEngine(t, 64<<10)
	data := datagen.OISTransactions(2<<20, 0.9, 9)
	compressedBlocks := 0
	w := core.NewWriter(conn, engine, func(r core.BlockResult) {
		if r.Decision.Method != codec.None {
			compressedBlocks++
		}
	})
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	got := <-done
	if !bytes.Equal(got, data) {
		t.Fatalf("TCP roundtrip mismatch: %d vs %d bytes", len(got), len(data))
	}
	if compressedBlocks == 0 {
		t.Fatal("sender never compressed despite a persistently slow receiver")
	}
}

// TestWriterCloseDrains closes the socket the moment Writer.Close returns,
// with a slow reader still behind: Close has waited until every byte was
// acknowledged, so nothing is left for a reset to destroy and the reader
// gets every byte and a clean end of stream, twenty times over.
func TestWriterCloseDrains(t *testing.T) {
	const blockSize = 16 << 10
	data := datagen.OISTransactions(1<<20, 0.9, 11)
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	for i := 0; i < 20; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			got []byte
			err error
		}
		done := make(chan result, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				done <- result{err: err}
				return
			}
			defer conn.Close()
			r := core.NewReader(conn, nil, nil)
			var out bytes.Buffer
			buf := make([]byte, 4<<10)
			for reads := 1; ; reads++ {
				n, err := r.Read(buf)
				out.Write(buf[:n])
				if err != nil {
					if err == io.EOF {
						err = nil
					}
					done <- result{out.Bytes(), err}
					return
				}
				if reads%8 == 0 {
					time.Sleep(100 * time.Microsecond) // a slow consumer
				}
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(core.Config{Selector: cfg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := core.NewWriter(conn, e, nil)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("iteration %d: Close: %v", i, err)
		}
		conn.Close()
		res := <-done
		ln.Close()
		if res.err != nil {
			t.Fatalf("iteration %d: reader: %v", i, res.err)
		}
		if !bytes.Equal(res.got, data) {
			t.Fatalf("iteration %d: %d bytes received, want %d", i, len(res.got), len(data))
		}
	}
}

// TestChannelSwitchover reproduces §3.2's operational story end to end: a
// consumer starts on the raw channel, decides the exchange is too slow,
// derives a compressed channel, subscribes to it and cancels its raw
// subscription — without touching the producer.
func TestChannelSwitchover(t *testing.T) {
	c1, c2 := net.Pipe()
	prodDomain, consDomain := echo.NewDomain(), echo.NewDomain()
	b1, b2 := echo.NewBridge(prodDomain, c1), echo.NewBridge(consDomain, c2)
	defer func() {
		b1.Close()
		b2.Close()
		<-b1.Done()
		<-b2.Done()
	}()

	engine := newEngine(t, 16<<10)
	engine.Monitor().Observe(16<<10, time.Second)
	raw := prodDomain.OpenChannel("stream")
	if _, err := echo.DeriveCompressed(raw, "stream.z", engine); err != nil {
		t.Fatal(err)
	}

	// Phase 1: consumer on the raw channel.
	rawImported, err := b2.ImportChannel("stream")
	if err != nil {
		t.Fatal(err)
	}
	gotRaw := make(chan int, 8)
	rawSub := rawImported.Subscribe(func(ev echo.Event) { gotRaw <- len(ev.Data) })

	waitSubs := func(name string, want int) {
		t.Helper()
		testx.WaitUntil(t, "a subscription on "+name, func() bool {
			ch, ok := prodDomain.Channel(name)
			return ok && ch.Subscribers() >= want
		})
	}
	// The raw channel already has one subscriber: the derived channel.
	waitSubs("stream", 2)

	payload := datagen.OISTransactions(16<<10, 0.9, 2)
	if err := raw.Submit(echo.Event{Data: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-gotRaw:
		if n != len(payload) {
			t.Fatalf("raw phase: got %d bytes", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("raw event never arrived")
	}

	// Phase 2: switch to the compressed channel.
	zImported, err := b2.ImportChannel("stream.z")
	if err != nil {
		t.Fatal(err)
	}
	gotZ := make(chan codec.BlockInfo, 8)
	echo.SubscribeDecompressed(zImported, nil, 0, func(data []byte, info codec.BlockInfo) {
		if !bytes.Equal(data, payload) {
			t.Error("compressed phase payload mismatch")
		}
		gotZ <- info
	})
	rawSub.Cancel()
	waitSubs("stream.z", 1)

	if err := raw.Submit(echo.Event{Data: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case info := <-gotZ:
		if info.Method == codec.None {
			t.Fatalf("switchover phase: expected compression, got %v", info.Method)
		}
		if info.CompLen >= info.OrigLen {
			t.Fatal("no size reduction after switchover")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compressed event never arrived")
	}
	select {
	case <-gotRaw:
		t.Fatal("raw subscription still delivering after switchover")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestMBoneScenarioEndToEnd is a compact version of the Figure 8 run as an
// integration test: the full stack (trace → load → link → engine → frames →
// decode) with the invariant that everything decodes and adaptation spans
// at least three methods.
func TestMBoneScenarioEndToEnd(t *testing.T) {
	clk := netsim.NewVirtual()
	start := clk.Now()
	prof := netsim.Fast100
	prof.RateBps /= 32
	link := netsim.NewLink(prof, clk, 1)
	tr := trace.MBoneSynthetic(1)
	link.SetLoad(tr.LoadFunc(trace.DefaultLoadConfig(prof, start), prof))

	tick := time.Unix(0, 0)
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 4 << 10
	engine, err := core.NewEngine(core.Config{
		Selector:   cfg,
		Now:        func() time.Time { tick = tick.Add(time.Millisecond); return tick },
		SpeedScale: (0.7 * 4096 / 0.001) / (2.2e6 / 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := datagen.OISTransactions(1<<20, 0.9, 1)
	var wire bytes.Buffer
	methods := map[codec.Method]bool{}
	s := core.NewSession(engine)
	blocks := 0
	for off := 0; clk.Now().Sub(start) < 160*time.Second; off = (off + cfg.BlockSize) % (len(data) - cfg.BlockSize) {
		res, err := s.TransmitBlock(data[off:off+cfg.BlockSize], func(frame []byte) (time.Duration, error) {
			wire.Write(frame)
			return link.Send(len(frame)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		methods[res.Decision.Method] = true
		blocks++
	}
	if len(methods) < 3 {
		t.Fatalf("adaptation too static: methods used = %v over %d blocks", methods, blocks)
	}
	fr := codec.NewFrameReader(&wire, nil)
	decoded := 0
	for {
		if _, _, err := fr.ReadBlock(); err != nil {
			if err != io.EOF {
				t.Fatalf("decode after %d blocks: %v", decoded, err)
			}
			break
		}
		decoded++
	}
	if decoded != blocks {
		t.Fatalf("decoded %d of %d blocks", decoded, blocks)
	}
}
