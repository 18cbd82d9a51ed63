package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// dialWhenListening dials addr until the listener run starts accepts.
func dialWhenListening(t *testing.T, addr string) net.Conn {
	t.Helper()
	var conn net.Conn
	testx.WaitUntil(t, "the listener on "+addr, func() bool {
		var err error
		conn, err = net.Dial("tcp", addr)
		return err == nil
	})
	return conn
}

// TestRecvRoundtrip drives run() with an in-process adaptive sender.
func TestRecvRoundtrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "copy.dat")
	data := datagen.OISTransactions(200<<10, 0.9, 6)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:39217", "-out", out})
	}()

	// Wait for the listener, then send.
	conn := dialWhenListening(t, "127.0.0.1:39217")
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 32 << 10
	engine, err := core.NewEngine(core.Config{Selector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWriter(conn, engine, nil)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestRecvBadListenAddr(t *testing.T) {
	if err := run([]string{"-listen", "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestRecvBadOutputPath(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0", "-out", "/no/such/dir/file"}); err == nil {
		t.Fatal("bad output path accepted")
	}
}

func TestRecvAddrWithoutChannel(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("-addr without -channel accepted")
	}
}

// TestRecvIdleTimeout: with -timeout set, a peer that connects and then
// goes silent must trip the read deadline instead of hanging forever.
func TestRecvIdleTimeout(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:39218", "-timeout", "300ms", "-out", filepath.Join(t.TempDir(), "x")})
	}()
	conn := dialWhenListening(t, "127.0.0.1:39218")
	defer conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("silent peer did not trip the read deadline")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung despite -timeout")
	}
}

// TestRecvSubscribeRoundtrip drives the broker-subscriber mode end to end.
func TestRecvSubscribeRoundtrip(t *testing.T) {
	data := datagen.OISTransactions(120<<10, 0.9, 13)
	out := filepath.Join(t.TempDir(), "copy.dat")

	b, err := broker.New(broker.Config{Channels: []string{"md"}, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", ln.Addr().String(), "-channel", "md", "-out", out})
	}()
	// The subscriber must be attached before publishing.
	testx.WaitUntil(t, "the subscriber to attach", func() bool { return b.Subscribers() > 0 })
	for off := 0; off < len(data); off += 16 << 10 {
		end := off + 16<<10
		if end > len(data) {
			end = len(data)
		}
		if err := b.Publish("md", data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("subscriber run: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("subscribe roundtrip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

// scriptedBroker is a minimal hand-rolled broker endpoint: it accepts
// connections in order and runs one script function per connection,
// letting tests stage multi-connection failure sequences (die mid-frame,
// hang, demand a resume handshake) that the real broker would never emit
// deterministically.
type scriptedBroker struct {
	t  *testing.T
	ln net.Listener
}

func newScriptedBroker(t *testing.T, scripts ...func(t *testing.T, conn net.Conn)) *scriptedBroker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sb := &scriptedBroker{t: t, ln: ln}
	go func() {
		for _, script := range scripts {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			script(t, conn)
			conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return sb
}

// readSubscribeHandshake consumes a no-preference subscribe hello for
// channel "md" and accepts it.
func readSubscribeHandshake(t *testing.T, conn net.Conn) {
	t.Helper()
	hello := make([]byte, 9) // "CCB" ver role len "md" placement
	if _, err := io.ReadFull(conn, hello); err != nil {
		t.Errorf("handshake read: %v", err)
		return
	}
	if hello[3] != broker.ProtocolVersion || hello[4] != 'S' || hello[8] != '-' {
		t.Errorf("hello version/role/placement = %d/%q/%q, want %d/'S'/'-'",
			hello[3], hello[4], hello[8], broker.ProtocolVersion)
	}
	if _, err := conn.Write([]byte{0}); err != nil {
		t.Errorf("handshake reply: %v", err)
	}
}

// readResumeHandshake consumes a resume hello for channel "md", checks the
// presented lastSeq, and accepts with firstSeq.
func readResumeHandshake(t *testing.T, conn net.Conn, wantLast, firstSeq uint64) {
	t.Helper()
	hello := make([]byte, 8)
	if _, err := io.ReadFull(conn, hello); err != nil {
		t.Errorf("resume handshake read: %v", err)
		return
	}
	if hello[3] != broker.ProtocolVersion || hello[4] != 'R' {
		t.Errorf("resume hello version/role = %d/%q, want %d/'R'", hello[3], hello[4], broker.ProtocolVersion)
	}
	last, err := binary.ReadUvarint(oneByteReader{conn})
	if err != nil {
		t.Errorf("resume lastSeq: %v", err)
		return
	}
	if pl, err := (oneByteReader{conn}).ReadByte(); err != nil || pl != '-' {
		t.Errorf("resume placement byte = %q (%v), want '-'", pl, err)
	}
	if last != wantLast {
		t.Errorf("resume lastSeq = %d, want %d", last, wantLast)
	}
	reply := binary.AppendUvarint([]byte{0}, firstSeq)
	if _, err := conn.Write(reply); err != nil {
		t.Errorf("resume reply: %v", err)
	}
}

type oneByteReader struct{ r io.Reader }

func (o oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(o.r, b[:])
	return b[0], err
}

// seqFrame builds one sequenced frame holding payload.
func seqFrame(t *testing.T, payload []byte, seq uint64) []byte {
	t.Helper()
	frame, _, err := codec.AppendFrameOpts(nil, nil, codec.None, payload, codec.FrameOpts{Seq: seq, HasSeq: true})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestRecvRetryBudgetResets is the regression test for the reconnect
// budget: every connection that delivers at least one block must reset the
// retry counter, so a long-lived subscriber with -reconnect 1 survives
// arbitrarily many isolated outages. Four consecutive connections each
// deliver one block and then die mid-frame; with a budget of one retry the
// run only succeeds if the counter resets after each productive
// connection.
func TestRecvRetryBudgetResets(t *testing.T) {
	payloads := [][]byte{
		[]byte("first block "), []byte("second block "), []byte("third block "),
		[]byte("fourth block "), []byte("fifth block"),
	}
	productive := func(i int) func(*testing.T, net.Conn) {
		return func(t *testing.T, conn net.Conn) {
			readSubscribeHandshake(t, conn)
			conn.Write(seqFrame(t, payloads[i], uint64(i+1)))
			// Die inside the next frame: a few bytes of a valid header,
			// then reset. The client must see a transport error, not a
			// clean end of stream.
			next := seqFrame(t, payloads[i+1], uint64(i+2))
			conn.Write(next[:5])
		}
	}
	final := func(t *testing.T, conn net.Conn) {
		readSubscribeHandshake(t, conn)
		conn.Write(seqFrame(t, payloads[4], 5))
		// Clean close at a frame boundary ends the stream.
	}
	sb := newScriptedBroker(t, productive(0), productive(1), productive(2), productive(3), final)

	out := filepath.Join(t.TempDir(), "copy.dat")
	err := run([]string{"-addr", sb.ln.Addr().String(), "-channel", "md",
		"-reconnect", "1", "-out", out})
	if err != nil {
		t.Fatalf("run with resetting retry budget: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(payloads, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestRecvWatchdog: a connection that stays open but delivers nothing must
// trip the watchdog and surface a transport error instead of hanging.
func TestRecvWatchdog(t *testing.T) {
	hang := make(chan struct{})
	sb := newScriptedBroker(t, func(t *testing.T, conn net.Conn) {
		readSubscribeHandshake(t, conn)
		conn.Write(seqFrame(t, []byte("only block"), 1))
		<-hang // keep the connection open, deliver nothing
	})
	defer close(hang)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", sb.ln.Addr().String(), "-channel", "md",
			"-watchdog", "250ms", "-out", filepath.Join(t.TempDir(), "x")})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled connection did not trip the watchdog")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("watchdog error = %v, want a net timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung despite -watchdog")
	}
}

// TestRecvResumeAcrossReconnect drives the full -resume client path: the
// first connection dies mid-frame after three blocks; the redial must
// present lastSeq 3 in a resume handshake, and the replayed duplicate of
// block 3 must be suppressed so the output holds every block exactly once.
func TestRecvResumeAcrossReconnect(t *testing.T) {
	payloads := [][]byte{
		[]byte("seq one "), []byte("seq two "), []byte("seq three "),
		[]byte("seq four "), []byte("seq five"),
	}
	first := func(t *testing.T, conn net.Conn) {
		readSubscribeHandshake(t, conn)
		for i := 0; i < 3; i++ {
			conn.Write(seqFrame(t, payloads[i], uint64(i+1)))
		}
		next := seqFrame(t, payloads[3], 4)
		conn.Write(next[:7]) // die mid-frame
	}
	second := func(t *testing.T, conn net.Conn) {
		readResumeHandshake(t, conn, 3, 3)
		// Replay overlaps the resume point: block 3 again (a duplicate the
		// tracker must suppress), then 4 and 5, then a clean close.
		for i := 2; i < 5; i++ {
			conn.Write(seqFrame(t, payloads[i], uint64(i+1)))
		}
	}
	sb := newScriptedBroker(t, first, second)

	out := filepath.Join(t.TempDir(), "copy.dat")
	err := run([]string{"-addr", sb.ln.Addr().String(), "-channel", "md",
		"-reconnect", "3", "-resume", "-out", out})
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(payloads, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("resume output:\n got %q\nwant %q", got, want)
	}
}

func TestRecvResumeRequiresBrokerMode(t *testing.T) {
	if err := run([]string{"-resume"}); err == nil {
		t.Fatal("-resume without -addr accepted")
	}
	if err := run([]string{"-watchdog", "1s"}); err == nil {
		t.Fatal("-watchdog without -addr accepted")
	}
}
