package lz

import (
	"bytes"
	"testing"
)

// FuzzLZDecode feeds arbitrary bytes to Decompress. Hostile inputs encode
// matches reaching before the start of the output or lengths past the claimed
// size; all of those must come back as errors, never panics, and whatever
// origLen claims the decoder may allocate only in proportion to the input
// and to an origLen the input could expand to.
func FuzzLZDecode(f *testing.F) {
	seeds := [][]byte{
		nil,
		[]byte("z"),
		[]byte("abcabcabcabcabcabc"),
		bytes.Repeat([]byte("configurable compression "), 24),
	}
	for _, s := range seeds {
		comp, err := Compress(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, len(s))
	}
	f.Add([]byte{0x01, 0x00, 0xff, 0xff}, 64)

	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<20 {
			return
		}
		var out []byte
		var err error
		grew := allocatedBy(func() { out, err = Decompress(data, origLen) })
		// The block and the bit reader's view of the input; the slack covers
		// the two code tables and whatever else the process allocates
		// meanwhile.
		if ceiling := uint64(4*(len(data)+origLen) + 1<<20); grew > ceiling {
			t.Fatalf("decoding %d bytes as %d allocated %d, ceiling %d", len(data), origLen, grew, ceiling)
		}
		if err != nil {
			return
		}
		if len(out) != origLen {
			t.Fatalf("decoded %d bytes, claimed %d", len(out), origLen)
		}
	})
}
