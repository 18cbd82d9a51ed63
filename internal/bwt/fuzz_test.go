package bwt

import (
	"bytes"
	"testing"
)

// FuzzBWTDecode feeds arbitrary bytes through the full inverse pipeline
// (chunk framing → RLE → MTF → inverse BWT). Corrupt primary indices and
// truncated run encodings must error out rather than panic or index out of
// range, and whatever the stream claims about its own lengths, the decoder
// may allocate only in proportion to the input and the declared origLen.
func FuzzBWTDecode(f *testing.F) {
	seeds := [][]byte{
		nil,
		[]byte("banana"),
		bytes.Repeat([]byte("mississippi "), 40),
		bytes.Repeat([]byte{7}, 512),
	}
	for _, s := range seeds {
		comp, err := Compress(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, len(s))
	}
	// A multi-chunk seed so the fuzzer reaches the chunk-boundary logic.
	multi, err := CompressChunked(bytes.Repeat([]byte("abcd"), 600), 1024)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi, 2400)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80}, 16)
	bomb, bombLen := lengthBomb()
	f.Add(bomb, bombLen)
	// Full groups gone wrong: a primary index past its chunk in the third
	// lane, and a second group cut short inside its chunk.
	text := bytes.Repeat([]byte("abcde"), 256)
	a, b, c, d := chunkOf(text[:256], 0), chunkOf(text[256:512], 0), chunkOf(text[512:768], 0), chunkOf(text[768:1024], 0)
	f.Add(streamOf(a, b, chunkOf(text[512:768], 256), d), 1024)
	f.Add(streamOf(a, b, c, d, a[:len(a)/2]), 1280)

	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<20 {
			return
		}
		var out []byte
		var err error
		grew := allocatedBy(func() { out, err = Decompress(data, origLen) })
		// The stream (at most 3·origLen+4096 and 8·len(data)), the block, a
		// chunk's ranks and a group's tables, 4 bytes per row of at most four
		// chunks that together fit the block; the slack covers first-use
		// pool fills and whatever else the process allocates meanwhile.
		if ceiling := uint64(16*(len(data)+origLen) + 1<<20); grew > ceiling {
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

// FuzzBWTEncode drives arbitrary bytes and chunk sizes through the encoder:
// the block must round-trip, and on chunks small enough to sort as strings
// the transform must agree with that sort.
func FuzzBWTEncode(f *testing.F) {
	f.Add([]byte("banana"), 16)
	f.Add(bytes.Repeat([]byte("ab"), 300), 512)
	f.Add(bytes.Repeat([]byte("mississippi "), 40), 7)
	f.Add(bytes.Repeat([]byte{0}, 100), 33)
	f.Add([]byte{3, 1, 2, 3, 1, 2, 3, 1, 2, 0xFF, 0xFE, 0xFF}, 9)

	f.Fuzz(func(t *testing.T, data []byte, chunkSize int) {
		if chunkSize <= 0 || len(data) > 1<<20 || len(data)/chunkSize > 1<<12 {
			return // thousands of tiny chunks only repeat the per-chunk set-up
		}
		comp, err := CompressChunked(data, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(comp, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip of %d bytes in chunks of %d differs", len(data), chunkSize)
		}
		// The first few chunks are enough: the rest went through the same
		// code, and sorting strings is what makes this target slow.
		for checked := 0; checked < 4 && len(data) > 0 && chunkSize <= 512; checked++ {
			chunk := data[:min(chunkSize, len(data))]
			data = data[len(chunk):]
			checkAgainstNaive(t, "fuzz", chunk)
		}
	})
}
