package netsim

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestShapedPipeDelivers(t *testing.T) {
	fast := Profile{Name: "fast", RateBps: 100e6, JitterFrac: 0}
	a, b := ShapedPipe(fast, 1)
	defer a.Close()
	defer b.Close()
	msg := []byte("through the shaped pipe")
	go func() {
		a.Write(msg)
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}

func TestShapedPipePacing(t *testing.T) {
	// 1 MB/s, 200 KB transfer → ≥ 200 ms of pacing (generous lower bound
	// to stay robust under CI scheduling noise).
	prof := Profile{Name: "paced", RateBps: 1e6, JitterFrac: 0}
	a, b := ShapedPipe(prof, 2)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 200<<10)
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for off := 0; off < len(payload); off += 8192 {
			if _, err := a.Write(payload[off : off+8192]); err != nil {
				done <- -1
				return
			}
		}
		done <- time.Since(start)
	}()
	if _, err := io.ReadFull(b, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	elapsed := <-done
	if elapsed < 150*time.Millisecond {
		t.Fatalf("200 KB at 1 MB/s finished in %v — not paced", elapsed)
	}
	if stats := a.(*shapedConn).link.Stats(); stats.Bytes != int64(len(payload)) {
		t.Fatalf("stats bytes = %d", stats.Bytes)
	}
}

func TestShapedPipeBidirectional(t *testing.T) {
	fast := Profile{Name: "duplex", RateBps: 100e6, JitterFrac: 0}
	a, b := ShapedPipe(fast, 3)
	defer a.Close()
	defer b.Close()
	go func() {
		a.Write([]byte("ping"))
		buf := make([]byte, 4)
		io.ReadFull(a, buf)
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
}
