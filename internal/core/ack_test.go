package core

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/faultnet"
	"ccx/internal/metrics"
	"ccx/internal/netutil"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// windowConn is the sender's end of a connection, counting what crosses it:
// frames written (a request on its own is not a frame), and the byte counts
// of the acknowledgements read. It records the most frames it ever saw
// unacknowledged at a write, this one included, and signals changed on
// every frame and every acknowledgement.
type windowConn struct {
	net.Conn
	changed chan struct{} // capacity 1: a signal is pending until taken

	mu      sync.Mutex
	written int64   // stream bytes written
	ends    []int64 // stream offset past each frame written
	acked   int64   // newest acknowledged count read
	acks    int     // acknowledgements read
	maxOut  int     // most frames unacknowledged at a write
	rbuf    []byte  // bytes read and not yet parsed
}

func (c *windowConn) signal() {
	select {
	case c.changed <- struct{}{}:
	default:
	}
}

// unacked counts the frames past the newest acknowledgement. c.mu is held.
func (c *windowConn) unacked() int {
	out := 0
	for _, end := range c.ends {
		if end > c.acked {
			out++
		}
	}
	return out
}

// state reports frames written, frames unacknowledged and acknowledgements
// read.
func (c *windowConn) state() (frames, unacked, acks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ends), c.unacked(), c.acks
}

func (c *windowConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.written += int64(len(p))
	frame := !bytes.Equal(p, ackRequest)
	if frame {
		c.ends = append(c.ends, c.written)
		c.maxOut = max(c.maxOut, c.unacked())
	}
	c.mu.Unlock()
	if frame {
		c.signal()
	}
	return c.Conn.Write(p)
}

func (c *windowConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rbuf = append(c.rbuf, p[:n]...)
	acks := c.acks
	for {
		br := bytes.NewReader(c.rbuf)
		_, info, ferr := codec.NewFrameReader(br, nil).ReadBlock()
		if ferr != nil {
			break // the rest of the frame is still on its way
		}
		c.rbuf = c.rbuf[len(c.rbuf)-br.Len():]
		if consumed, request, ok := parseAck(info.Anno); ok && !request {
			c.acked = max(c.acked, consumed)
			c.acks++
		}
	}
	moved := c.acks != acks
	c.mu.Unlock()
	if moved {
		c.signal()
	}
	return n, err
}

// gatedConn is the receiver's end of a connection; each of its writes (the
// Reader's acknowledgements) waits for a token on gate, and a closed gate
// lets everything through.
type gatedConn struct {
	net.Conn
	gate chan struct{}
}

func (c gatedConn) Write(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(p)
}

// rawBlocks returns n blocks' worth of a compressible corpus.
func rawBlocks(n, size int) []byte {
	return datagen.OISTransactions(n*size, 0.9, 5)
}

// rawEngine is an engine on a line that outruns every codec, so it sends
// its blocks raw: each frame is its block plus a header.
func rawEngine(t *testing.T, workers, blockSize int, tel Telemetry) *Engine {
	t.Helper()
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	e := newTestEngine(t, Config{Selector: cfg, Workers: workers, Telemetry: tel})
	e.Monitor().Observe(blockSize, time.Microsecond)
	return e
}

// TestWindowBoundsInFlight pins the send window as a count. A receiver takes
// one block per token, and its acknowledgements pass one per token too: the
// first at once, each later one only when every written frame has been
// read and sendWindow of them are unacknowledged, so only the window can
// stop the Writer. At every write at most sendWindow frames may be
// unacknowledged, and the bound must be reached. No clock decides anything.
func TestWindowBoundsInFlight(t *testing.T) {
	const blockSize, blocks = 4 << 10, 96
	for _, workers := range []int{1, 2} {
		client, server := net.Pipe()
		conn := &windowConn{Conn: client, changed: make(chan struct{}, 1)}
		gate := make(chan struct{}, 1)
		gate <- struct{}{} // the window turns on at the first answer
		data := rawBlocks(blocks, blockSize)

		tokens, delivered := make(chan struct{}), make(chan struct{})
		received := make(chan []byte, 1)
		go func() {
			r := NewReader(gatedConn{Conn: server, gate: gate}, nil, nil)
			var got []byte
			p := make([]byte, blockSize)
			for range tokens {
				if _, err := io.ReadFull(r, p); err != nil {
					t.Errorf("%d workers: block %d: %v", workers, len(got)/blockSize, err)
				}
				got = append(got, p...)
				delivered <- struct{}{}
			}
			_, _ = io.Copy(io.Discard, r) // answers the Writer's closing request
			received <- got
		}()
		met := metrics.NewRegistry()
		e := rawEngine(t, workers, blockSize, Telemetry{Metrics: met})
		closed := make(chan error, 1)
		go func() {
			w := NewWriter(conn, e, nil)
			if _, err := w.Write(data); err != nil {
				closed <- err
				return
			}
			closed <- w.Close()
		}()
		for n := 0; n < blocks; {
			frames, unacked, acks := conn.state()
			switch {
			case frames > n && (acks > 0 || n == 0):
				tokens <- struct{}{}
				<-delivered
				n++
			case frames == n && unacked >= sendWindow:
				select {
				case gate <- struct{}{}:
				case <-conn.changed: // an answer already on its way landed
				}
			default:
				select {
				case <-conn.changed:
				case <-time.After(10 * time.Second): // a watchdog, not a pace
					t.Fatalf("%d workers: the Writer stopped at %d frames, %d unacknowledged", workers, frames, unacked)
				}
			}
		}
		close(tokens)
		close(gate)
		if err := <-closed; err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		client.Close()
		got := <-received
		server.Close()
		if !bytes.Equal(got, data) {
			t.Fatalf("%d workers: %d bytes received, want %d", workers, len(got), len(data))
		}
		conn.mu.Lock()
		maxOut := conn.maxOut
		conn.mu.Unlock()
		if maxOut != sendWindow {
			t.Fatalf("%d workers: at most %d frames unacknowledged at a write, want the window's %d", workers, maxOut, sendWindow)
		}
		if got := met.Snapshot()["ccx.window_wait_seconds.count"]; got != blocks {
			t.Fatalf("%d workers: window_wait_seconds.count = %v, want one per block (%d)", workers, got, blocks)
		}
	}
}

// TestWriterResyncDoesNotStall damages frames on their way to a Reader that
// skips them: the receiver's count still covers the skipped bytes, so the
// Writer's window keeps moving and Close returns.
func TestWriterResyncDoesNotStall(t *testing.T) {
	const blockSize, blocks = 16 << 10, 48
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	// Seed 2 lands both flips of the 768 KiB stream inside raw payloads.
	faulty := faultnet.Wrap(client, faultnet.Plan{FlipPer: 384 << 10, Seed: 2})
	data := rawBlocks(blocks, blockSize)

	var skipped int
	received := make(chan []byte, 1)
	go func() {
		r := NewReader(server, nil, nil)
		r.SetCorruptHandler(func(error) bool { skipped++; return true })
		got, err := io.ReadAll(r)
		if err != nil {
			t.Errorf("reader: %v", err)
		}
		received <- got
	}()
	w := NewWriter(faulty, rawEngine(t, 2, blockSize, Telemetry{}), nil)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	got := <-received
	if skipped == 0 {
		t.Fatal("no frame was damaged")
	}
	if len(got) != len(data)-skipped*blockSize {
		t.Fatalf("%d bytes received with %d frames skipped, want %d", len(got), skipped, len(data)-skipped*blockSize)
	}
}

// TestReaderAnswersPeerThatNeverReads: a sender that asks and then never
// reads leaves the Reader's answers unwritten, and the Reader still
// delivers every block — on a net.Pipe, where a write blocks until the
// other end reads.
func TestReaderAnswersPeerThatNeverReads(t *testing.T) {
	const blockSize, blocks = 4 << 10, 32
	client, server := net.Pipe()
	defer server.Close()
	data := rawBlocks(blocks, blockSize)
	go func() {
		defer client.Close()
		wire := append([]byte(nil), ackRequest...)
		for off := 0; off < len(data); off += blockSize {
			var err error
			if wire, _, err = codec.AppendFrameOpts(wire, nil, codec.None, data[off:off+blockSize], codec.FrameOpts{}); err != nil {
				t.Error(err)
				return
			}
		}
		wire = append(wire, ackRequest...)
		if _, err := client.Write(wire); err != nil {
			t.Error(err)
		}
	}()
	got, err := io.ReadAll(NewReader(server, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%d bytes received, want %d", len(got), len(data))
	}
}

// TestWriterClosePeerHangsUp: a peer that reads everything and closes
// without answering leaves bytes unacknowledged, and Close says so instead
// of waiting forever.
func TestWriterClosePeerHangsUp(t *testing.T) {
	const blockSize, blocks = 4 << 10, 16
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		fr := codec.NewFrameReader(server, nil)
		for requests := 0; requests < 2; { // the first frame's, then Close's
			_, info, err := fr.ReadBlock()
			if err != nil {
				t.Error(err)
				return
			}
			if _, request, ok := parseAck(info.Anno); ok && request {
				requests++
			}
		}
	}()
	w := NewWriter(client, rawEngine(t, 1, blockSize, Telemetry{}), nil)
	if _, err := w.Write(rawBlocks(blocks, blockSize)); err != nil {
		t.Fatal(err)
	}
	err := w.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Close = %v, want the unanswered bytes reported", err)
	}
}

// TestWriterPauseOutlastsReadTimeout: the Writer's input pauses for longer
// than its conn's read timeout while frames are not yet due an answer. The
// pause is the Writer's own, not a dead peer, so the stream goes on and
// Close drains.
func TestWriterPauseOutlastsReadTimeout(t *testing.T) {
	const blockSize, timeout = 4 << 10, 200 * time.Millisecond
	client, server := net.Pipe()
	defer client.Close()
	data := rawBlocks(8, blockSize)
	received := make(chan []byte, 1)
	go func() {
		defer server.Close()
		got, err := io.ReadAll(NewReader(server, nil, nil))
		if err != nil {
			t.Errorf("reader: %v", err)
		}
		received <- got
	}()
	w := NewWriter(netutil.WithTimeouts(client, timeout, 0), rawEngine(t, 1, blockSize, Telemetry{}), nil)
	// Five frames after the request leave two unanswered (ackEvery is 4).
	if _, err := w.Write(data[:5*blockSize]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * timeout)
	if _, err := w.Write(data[5*blockSize:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after a pause: %v", err)
	}
	client.Close()
	if got := <-received; !bytes.Equal(got, data) {
		t.Fatalf("%d bytes received, want %d", len(got), len(data))
	}
}

// TestWriterCloseSilentPeer: a receiver that reads everything and never
// answers (one from before acknowledgements) gets firstAnswerWait to
// answer the drain, and then Close returns nil as it did before.
func TestWriterCloseSilentPeer(t *testing.T) {
	const blockSize, blocks = 4 << 10, 16
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan int, 1)
	go func() {
		defer server.Close()
		fr := codec.NewFrameReader(server, nil)
		n := 0
		for {
			data, _, err := fr.ReadBlock()
			if err != nil {
				done <- n
				return
			}
			n += len(data)
		}
	}()
	w := NewWriter(client, rawEngine(t, 1, blockSize, Telemetry{}), nil)
	if _, err := w.Write(rawBlocks(blocks, blockSize)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := w.Close(); err != nil {
		t.Fatalf("Close = %v, want nil from a peer that never answers", err)
	}
	if waited := time.Since(start); waited < firstAnswerWait {
		t.Fatalf("Close returned after %v, before firstAnswerWait", waited)
	}
	client.Close()
	if n := <-done; n != blocks*blockSize {
		t.Fatalf("%d bytes received, want %d", n, blocks*blockSize)
	}
}

// TestReaderStopsAnswering: a Reader whose caller stops reading without an
// error (ccrecv's io.Copy when its output fails) leaves no goroutine behind
// once the connection closes, whether or not its last answer was read.
func TestReaderStopsAnswering(t *testing.T) {
	const blockSize, blocks = 4 << 10, 32
	guard := testx.GoroutineGuard(t, 0)
	client, server := net.Pipe()
	e := rawEngine(t, 1, blockSize, Telemetry{})
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		w := NewWriter(client, e, nil)
		if _, err := w.Write(rawBlocks(blocks, blockSize)); err == nil {
			_ = w.Close() // cut short when the conn closes
		}
	}()
	p := make([]byte, 6*blockSize)
	if _, err := io.ReadFull(NewReader(server, nil, nil), p); err != nil {
		t.Fatal(err)
	}
	server.Close()
	client.Close()
	<-sent
	guard()
}
