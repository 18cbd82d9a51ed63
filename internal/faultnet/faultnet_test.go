package faultnet

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// sink records everything written to one end of an in-memory pipe.
func sink(t *testing.T) (net.Conn, *collector) {
	t.Helper()
	c1, c2 := net.Pipe()
	col := &collector{done: make(chan struct{})}
	go col.drain(c2)
	t.Cleanup(func() {
		c1.Close()
		c2.Close()
		<-col.done
	})
	return c1, col
}

type collector struct {
	buf  bytes.Buffer
	done chan struct{}
}

func (c *collector) drain(conn net.Conn) {
	defer close(c.done)
	tmp := make([]byte, 4096)
	for {
		n, err := conn.Read(tmp)
		c.buf.Write(tmp[:n])
		if err != nil {
			return
		}
	}
}

func (c *collector) bytes() []byte {
	<-c.done
	return c.buf.Bytes()
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestZeroPlanIsTransparent(t *testing.T) {
	raw, col := sink(t)
	fc := Wrap(raw, Plan{})
	data := pattern(10_000)
	for off := 0; off < len(data); off += 1000 {
		if _, err := fc.Write(data[off : off+1000]); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	if !bytes.Equal(col.bytes(), data) {
		t.Fatal("fault-free plan altered the stream")
	}
}

// plannedFlips is the reference for where a flip plan damages the first n
// bytes: one offset per FlipPer window, drawn from the plan's seeded stream
// in the order Conn draws them (an offset, then the bit to flip).
func plannedFlips(p Plan, n int) []int {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for w := 0; ; w++ {
		off := w*p.FlipPer + rng.Intn(p.FlipPer)
		if off >= n {
			return out
		}
		out = append(out, off)
		rng.Intn(8)
	}
}

func TestFlipDamagesExpectedWindows(t *testing.T) {
	plan := Plan{Seed: 5, FlipPer: 1024}
	raw, col := sink(t)
	fc := Wrap(raw, plan)
	data := pattern(8 * 1024)
	for off := 0; off < len(data); off += 300 { // uneven chunks cross windows
		end := off + 300
		if end > len(data) {
			end = len(data)
		}
		if _, err := fc.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	got := col.bytes()
	if len(got) != len(data) {
		t.Fatalf("length changed: %d vs %d", len(got), len(data))
	}
	var diffs []int
	for i := range got {
		if got[i] != data[i] {
			diffs = append(diffs, i)
		}
	}
	want := plannedFlips(plan, len(data))
	if len(diffs) != len(want) {
		t.Fatalf("flipped %d bytes %v, planned %d %v", len(diffs), diffs, len(want), want)
	}
	for i := range diffs {
		if diffs[i] != want[i] {
			t.Fatalf("flip %d at %d, planned %d", i, diffs[i], want[i])
		}
	}
	// One bit per flip, never more.
	for _, i := range diffs {
		x := got[i] ^ data[i]
		if x&(x-1) != 0 {
			t.Fatalf("offset %d: more than one bit flipped (%08b)", i, x)
		}
	}
}

func TestDropSwallowsExactRange(t *testing.T) {
	raw, col := sink(t)
	fc := Wrap(raw, Plan{DropAt: 2500, DropLen: 700})
	data := pattern(6000)
	for off := 0; off < len(data); off += 512 {
		end := off + 512
		if end > len(data) {
			end = len(data)
		}
		if _, err := fc.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	want := append(append([]byte(nil), data[:2500]...), data[3200:]...)
	if !bytes.Equal(col.bytes(), want) {
		t.Fatal("dropped range mismatch")
	}
}

func TestDupAndReorder(t *testing.T) {
	raw, col := sink(t)
	fc := Wrap(raw, Plan{DupEvery: 3, ReorderEvery: 4})
	chunks := [][]byte{
		[]byte("aa"), []byte("bb"), []byte("cc"), []byte("dd"), []byte("ee"),
	}
	for _, ch := range chunks {
		if _, err := fc.Write(ch); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	// Write 3 duplicated, write 4 held and emitted after write 5.
	want := "aabbcccceedd"
	if got := string(col.bytes()); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestResetClosesAbruptly(t *testing.T) {
	raw, col := sink(t)
	fc := Wrap(raw, Plan{ResetAt: 1500})
	data := pattern(4000)
	var err error
	for off := 0; off < len(data) && err == nil; off += 1000 {
		_, err = fc.Write(data[off : off+1000])
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset, got %v", err)
	}
	if _, err := fc.Write([]byte("after")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset write: %v", err)
	}
	if got := col.bytes(); !bytes.Equal(got, data[:1500]) {
		t.Fatalf("peer saw %d bytes, want exactly 1500", len(got))
	}
}

func TestStallPausesMidStream(t *testing.T) {
	raw, col := sink(t)
	fc := Wrap(raw, Plan{StallAt: 512, Stall: 120 * time.Millisecond})
	start := time.Now()
	data := pattern(2048)
	if _, err := fc.Write(data); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("write returned in %v; stall never happened", d)
	}
	fc.Close()
	if !bytes.Equal(col.bytes(), data) {
		t.Fatal("stall corrupted data")
	}
}

func TestParsePlanRoundtrip(t *testing.T) {
	cases := []struct {
		in   string
		want Plan
	}{
		{"", Plan{}},
		{"none", Plan{}},
		{"flip=65536,seed=7", Plan{FlipPer: 65536, Seed: 7}},
		{"drop=4096:16", Plan{DropAt: 4096, DropLen: 16}},
		{"stall=100:250ms", Plan{StallAt: 100, Stall: 250 * time.Millisecond}},
		{"reset=1048576", Plan{ResetAt: 1 << 20}},
		{"dup=7,reorder=13", Plan{DupEvery: 7, ReorderEvery: 13}},
		{
			"flip=1024,drop=10:2,dup=3,reorder=5,stall=9:1s,reset=99,seed=-4",
			Plan{FlipPer: 1024, DropAt: 10, DropLen: 2, DupEvery: 3,
				ReorderEvery: 5, StallAt: 9, Stall: time.Second, ResetAt: 99, Seed: -4},
		},
	}
	for _, tc := range cases {
		got, err := ParsePlan(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("%q: got %+v want %+v", tc.in, got, tc.want)
		}
		// String() must parse back to the same plan.
		back, err := ParsePlan(got.String())
		if err != nil || back != got {
			t.Fatalf("%q: String() %q did not roundtrip (%v)", tc.in, got.String(), err)
		}
	}
	for _, bad := range []string{"flip", "flip=x", "drop=5", "stall=1:nope", "bogus=1", "flip=-3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
}

func TestWrapListenerDerivesSeeds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := WrapListener(ln, Plan{FlipPer: 64, Seed: 3})
	defer wrapped.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := wrapped.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	var peers []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		peers = append(peers, c)
	}
	_ = peers
	var plans []Plan
	for i := 0; i < 2; i++ {
		select {
		case c := <-accepted:
			fc, ok := c.(*Conn)
			if !ok {
				t.Fatal("accepted conn is not a faultnet.Conn")
			}
			plans = append(plans, fc.plan)
			c.Close()
		case <-time.After(5 * time.Second):
			t.Fatal("accept timeout")
		}
	}
	if plans[0].Seed == plans[1].Seed {
		t.Fatalf("both conns share seed %d", plans[0].Seed)
	}
	// Disabled plans don't wrap at all.
	if l := WrapListener(ln, Plan{}); l != ln {
		t.Fatal("zero plan should return the listener unchanged")
	}
}
