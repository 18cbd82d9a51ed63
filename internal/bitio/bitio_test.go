package bitio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(0)
	pattern := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestMSBFirstPacking(t *testing.T) {
	w := NewWriter(0)
	// 1010 1100 should pack into 0xAC.
	if err := w.WriteBits(0b10101100, 8); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xAC}) {
		t.Fatalf("got % x want ac", got)
	}
}

func TestPartialBytePadding(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xA0}) {
		t.Fatalf("got % x want a0", got)
	}
}

func TestWriteBitsWidths(t *testing.T) {
	vals := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0x3, 2}, {0x7F, 7}, {0xFF, 8}, {0x1FF, 9},
		{0xDEAD, 16}, {0xDEADBEEF, 32}, {0x0123456789ABCDEF, 60},
		{^uint64(0), 64}, {0x55, 13}, {1, 64},
	}
	w := NewWriter(0)
	for _, tc := range vals {
		if err := w.WriteBits(tc.v, tc.n); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes())
	for i, tc := range vals {
		want := tc.v
		if tc.n < 64 {
			want &= (1 << tc.n) - 1
		}
		got, err := r.ReadBits(tc.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("read %d (n=%d): got %#x want %#x", i, tc.n, got, want)
		}
	}
}

func TestWriteByteReadByte(t *testing.T) {
	w := NewWriter(0)
	w.WriteBit(1) // unaligned prefix
	for i := 0; i < 256; i++ {
		if err := w.WriteByte(byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		b, err := r.ReadByte()
		if err != nil {
			t.Fatal(err)
		}
		if b != byte(i) {
			t.Fatalf("byte %d: got %#x", i, b)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v want ErrUnexpectedEOF", err)
	}
}

func TestTooManyBits(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(0, 65); err != ErrTooManyBits {
		t.Fatalf("write: got %v", err)
	}
	r := NewReader(nil)
	if _, err := r.ReadBits(65); err != ErrTooManyBits {
		t.Fatalf("read: got %v", err)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	w.WriteBits(0xA, 4)
	if got := w.Bytes(); !bytes.Equal(got, []byte{0xA0}) {
		t.Fatalf("got % x", got)
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.BitsRemaining() != 24 {
		t.Fatalf("got %d", r.BitsRemaining())
	}
	r.ReadBits(5)
	if r.BitsRemaining() != 19 {
		t.Fatalf("got %d", r.BitsRemaining())
	}
}

// TestQuickRoundtrip writes a random sequence of (value, width) pairs and
// verifies bit-exact recovery.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, n)
		w := NewWriter(0)
		for i := range items {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			items[i] = item{v, width}
			if err := w.WriteBits(v, width); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<17) == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 13)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 1<<17; i++ {
		w.WriteBits(uint64(i), 13)
	}
	buf := w.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	r := NewReader(buf)
	for i := 0; i < b.N; i++ {
		if r.BitsRemaining() < 13 {
			r = NewReader(buf)
		}
		r.ReadBits(13)
	}
}

func TestPeekBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b1011_0110_01, 10)
	r := NewReader(w.Bytes())
	v, avail := r.PeekBits(10)
	if avail != 10 || v != 0b1011011001 {
		t.Fatalf("peek = %b avail %d", v, avail)
	}
	// Peeking must not consume.
	v2, _ := r.PeekBits(10)
	if v2 != v {
		t.Fatal("peek consumed bits")
	}
	if err := r.SkipBits(4); err != nil {
		t.Fatal(err)
	}
	v3, avail3 := r.PeekBits(10)
	// 6 data bits remain plus 6 padding bits from Bytes(); the writer padded
	// to 16 bits, so 12 remain: avail is full.
	if avail3 != 10 {
		t.Fatalf("avail after skip = %d", avail3)
	}
	if v3>>4 != 0b011001 {
		t.Fatalf("post-skip peek = %b", v3)
	}
}

func TestPeekBitsNearEnd(t *testing.T) {
	r := NewReader([]byte{0b1010_0000})
	r.ReadBits(5)
	v, avail := r.PeekBits(10)
	if avail != 3 {
		t.Fatalf("avail = %d want 3", avail)
	}
	// Remaining 3 bits (000) left-aligned into 10: all zero.
	if v != 0 {
		t.Fatalf("v = %b", v)
	}
	if err := r.SkipBits(3); err != nil {
		t.Fatal(err)
	}
	if err := r.SkipBits(1); err == nil {
		t.Fatal("skip past end accepted")
	}
}

func TestPeekBitsClampsTo32(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xDEADBEEFCAFE, 48)
	r := NewReader(w.Bytes())
	v, avail := r.PeekBits(64)
	if avail != 32 {
		t.Fatalf("avail = %d", avail)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("v = %x", v)
	}
}
