package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/selector"
)

func smallBlockEngine(t *testing.T, blockSize int) *Engine {
	t.Helper()
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	e, err := NewEngine(Config{Selector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestWriterReaderRoundtrip(t *testing.T) {
	e := smallBlockEngine(t, 8*1024)
	data := datagen.OISTransactions(100*1024, 0.9, 1)

	var wire bytes.Buffer
	w := NewWriter(&wire, e, nil)
	// Write in awkward sizes to exercise buffering.
	for off := 0; off < len(data); {
		n := 3000
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if wire.Len() == 0 {
		t.Fatal("nothing written")
	}

	r := NewReader(&wire, nil, nil)
	got, err := io.ReadAll(r)
	if err != io.EOF && err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestWriterCloseFlushesPartial(t *testing.T) {
	e := smallBlockEngine(t, 64*1024)
	var wire bytes.Buffer
	w := NewWriter(&wire, e, nil)
	if _, err := w.Write([]byte("short tail")); err != nil {
		t.Fatal(err)
	}
	if wire.Len() != 0 {
		t.Fatal("partial block flushed early")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close errored")
	}
	r := NewReader(&wire, nil, nil)
	got, _ := io.ReadAll(r)
	if string(got) != "short tail" {
		t.Fatalf("got %q", got)
	}
}

func TestWriterRejectsAfterClose(t *testing.T) {
	e := smallBlockEngine(t, 1024)
	w := NewWriter(io.Discard, e, nil)
	w.Close()
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestWriterBlockCallback(t *testing.T) {
	e := smallBlockEngine(t, 4*1024)
	var results []BlockResult
	w := NewWriter(io.Discard, e, func(r BlockResult) { results = append(results, r) })
	data := datagen.OISTransactions(20*1024, 0.9, 1)
	w.Write(data)
	w.Close()
	if len(results) != 5 {
		t.Fatalf("got %d block callbacks", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("indices out of order: %+v", results)
		}
	}
}

func TestReaderBlockInfoCallback(t *testing.T) {
	e := smallBlockEngine(t, 4*1024)
	var wire bytes.Buffer
	w := NewWriter(&wire, e, nil)
	w.Write(datagen.OISTransactions(12*1024, 0.9, 1))
	w.Close()
	var infos []codec.BlockInfo
	r := NewReader(&wire, nil, func(i codec.BlockInfo) { infos = append(infos, i) })
	io.ReadAll(r)
	if len(infos) != 3 {
		t.Fatalf("got %d infos", len(infos))
	}
}

func TestReaderPropagatesCorruption(t *testing.T) {
	e := smallBlockEngine(t, 4*1024)
	var wire bytes.Buffer
	w := NewWriter(&wire, e, nil)
	w.Write(datagen.OISTransactions(8*1024, 0.9, 1))
	w.Close()
	raw := wire.Bytes()
	raw[len(raw)-1] ^= 0xFF
	r := NewReader(bytes.NewReader(raw), nil, nil)
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("corruption not surfaced")
	}
}

func TestWriterReaderOverTCP(t *testing.T) {
	// End-to-end over a real socket: adaptation runs on genuine send timing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	data := datagen.OISTransactions(600*1024, 0.9, 2)
	recvDone := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			recvDone <- nil
			return
		}
		defer conn.Close()
		r := NewReader(conn, nil, nil)
		got, _ := io.ReadAll(r)
		recvDone <- got
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	e := smallBlockEngine(t, 64*1024)
	w := NewWriter(conn, e, nil)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	got := <-recvDone
	if !bytes.Equal(got, data) {
		t.Fatalf("TCP roundtrip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

// TestReaderMixedStream: the Reader borrows raw payloads from the frame
// reader's scratch, so every kind of frame around a raw one — fallback to
// raw, compressed, empty, and the annotated close frame — must still come out
// byte-identical whether the caller drains blocks in slivers or whole.
func TestReaderMixedStream(t *testing.T) {
	noise := make([]byte, 5000)
	rand.New(rand.NewSource(9)).Read(noise)
	text := datagen.OISTransactions(20<<10, 0.9, 4)
	closeAnno := codec.AppendAnnoRecord(nil, codec.AnnoKindClose, []byte("\x01done"))
	var wire, want []byte
	for _, f := range []struct {
		m    codec.Method
		data []byte
		anno []byte
	}{
		{codec.None, text, nil},
		{codec.None, noise, nil},
		{codec.LempelZiv, noise, nil}, // expands: falls back to raw
		{codec.LempelZiv, text, nil},
		{codec.None, nil, nil}, // heartbeat
		{codec.None, text[:100], nil},
		{codec.BurrowsWheeler, text, nil},
		{codec.None, noise[:1], nil},
		{codec.None, nil, closeAnno},
	} {
		var err error
		if wire, _, err = codec.AppendFrameOpts(wire, nil, f.m, f.data, codec.FrameOpts{Anno: f.anno}); err != nil {
			t.Fatal(err)
		}
		want = append(want, f.data...)
	}
	errClosed := errors.New("closed by peer")
	for _, size := range []int{1, 7, 4096, 1 << 20} {
		r := NewReader(bytes.NewReader(wire), nil, nil)
		r.SetCloseHandler(func([]byte) error { return errClosed })
		var got []byte
		p := make([]byte, size)
		var err error
		for err == nil {
			var n int
			n, err = r.Read(p)
			got = append(got, p[:n]...)
		}
		if err != errClosed {
			t.Fatalf("p of %d bytes: stream ended with %v, want the close handler's error", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("p of %d bytes: %d bytes decoded, want %d, or content differs", size, len(got), len(want))
		}
	}
}

// TestReaderRawFrameAllocs is the receive path's ceiling while the selector
// sends raw: a 16 KiB raw frame through the Reader costs the frame reader's
// small header allocations and nothing that scales with the payload.
func TestReaderRawFrameAllocs(t *testing.T) {
	const frames = 64
	block := datagen.OISTransactions(16<<10, 0.9, 2)
	var wire []byte
	for i := 0; i < frames+1; i++ {
		var err error
		if wire, _, err = codec.AppendFrameOpts(wire, nil, codec.None, block, codec.FrameOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(wire), nil, nil)
	p := make([]byte, len(block))
	if _, err := io.ReadFull(r, p); err != nil { // sizes the payload scratch
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		if _, err := io.ReadFull(r, p); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(p, block) {
		t.Fatal("last block differs")
	}
	if n := float64(after.Mallocs-before.Mallocs) / frames; n > 3 {
		t.Errorf("%.1f allocations per raw frame, want at most 3", n)
	}
	if b := float64(after.TotalAlloc-before.TotalAlloc) / frames; b >= 256 {
		t.Errorf("%.0f bytes allocated per raw 16 KiB frame, want < 256", b)
	}
}

// countingReader counts the Read calls that reach the stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderRawFrameReads counts the stream reads a raw 16 KiB frame costs
// through the Reader: one for the shortest possible header, one more only
// when a long uvarint runs past it, and one for the rest of the header with
// the payload. Each is a syscall, and a deadline re-arm under a timeout conn.
func TestReaderRawFrameReads(t *testing.T) {
	const frames = 16
	block := datagen.OISTransactions(16<<10, 0.9, 2)
	anno := bytes.Repeat([]byte{0x7F}, 30)
	for _, tc := range []struct {
		name     string
		opts     codec.FrameOpts
		maxReads int
	}{
		{"unsequenced", codec.FrameOpts{}, 2},
		{"seq 100000", codec.FrameOpts{Seq: 100000, HasSeq: true}, 3},
		{"seq 100000, 30-byte annotation", codec.FrameOpts{Seq: 100000, HasSeq: true, Anno: anno}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wire []byte
			for i := 0; i < frames; i++ {
				var err error
				if wire, _, err = codec.AppendFrameOpts(wire, nil, codec.None, block, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			cr := &countingReader{r: bytes.NewReader(wire)}
			r := NewReader(cr, nil, nil)
			p := make([]byte, len(block))
			for i := 0; i < frames; i++ {
				if _, err := io.ReadFull(r, p); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(p, block) {
					t.Fatalf("frame %d differs", i)
				}
			}
			if n := float64(cr.reads) / frames; n > float64(tc.maxReads) {
				t.Fatalf("%.2f reads per raw frame, want at most %d", n, tc.maxReads)
			}
		})
	}
}
