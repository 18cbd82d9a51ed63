package huffman

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzHuffmanDecode feeds arbitrary bytes to Decompress. The decoder must
// never panic, and may allocate only in proportion to the input and to an
// origLen the input could actually hold; any malformed input must surface as
// an error.
func FuzzHuffmanDecode(f *testing.F) {
	seeds := [][]byte{
		nil,
		[]byte("a"),
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte("abab"), 64),
		bytes.Repeat([]byte{0}, 300),
	}
	for _, s := range seeds {
		comp, err := Compress(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, len(s))
	}
	f.Add([]byte{0xff, 0xff, 0xff}, 10)
	f.Add(bytes.Repeat([]byte{0x04, 0x10}, 200), 1<<20) // claims far more symbols than it has bits

	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<20 {
			return // bound allocation: real callers clamp via frame limits
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := Decompress(data, origLen)
		runtime.ReadMemStats(&after)
		// The output; the slack covers a first-use pool fill and whatever
		// else the process allocates meanwhile.
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(2*(len(data)+origLen)+1<<20); grew > ceiling {
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
