package arith

import (
	"bytes"
	"runtime"
	"testing"
)

// allocatedBy reports the bytes fn allocated, as the growth of the
// process's cumulative allocation count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzArithDecode feeds arbitrary bytes to both the order-0 and order-1
// decoders. Arithmetic decoding happily "decodes" random bit streams into
// random symbols — that is fine; what must never happen is a panic, a hang,
// output of a length other than the claimed one on success, or allocation
// beyond the block and the models. An arithmetic code has no least cost per
// symbol, so no origLen is implausible for an input and the ceiling is in
// origLen alone.
func FuzzArithDecode(f *testing.F) {
	seeds := [][]byte{
		nil,
		[]byte("e"),
		[]byte("an arithmetic coder models symbol probabilities adaptively"),
		bytes.Repeat([]byte("ratio "), 80),
	}
	for _, s := range seeds {
		comp, err := Compress(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, len(s))
		comp1, err := CompressOrder1(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp1, len(s))
	}
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, 32)

	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<20 {
			return
		}
		grew := allocatedBy(func() {
			if out, err := Decompress(data, origLen); err == nil && len(out) != origLen {
				t.Fatalf("order-0 decoded %d bytes, claimed %d", len(out), origLen)
			}
			if out, err := DecompressOrder1(data, origLen); err == nil && len(out) != origLen {
				t.Fatalf("order-1 decoded %d bytes, claimed %d", len(out), origLen)
			}
		})
		// Two blocks, and at most 257 models of 2 KiB between the two orders.
		if ceiling := uint64(2*origLen + 2<<20); grew > ceiling {
			t.Fatalf("decoding %d bytes as %d twice allocated %d, ceiling %d", len(data), origLen, grew, ceiling)
		}
	})
}
