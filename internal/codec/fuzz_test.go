package codec

import (
	"bytes"
	"testing"
)

// Fuzz targets: their seed corpora run as part of the ordinary test suite;
// `go test -fuzz=FuzzX ./internal/codec` explores further. Two invariants:
// compress∘decompress is the identity for every method, and no decoder may
// panic on arbitrary bytes.

func fuzzSeeds(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("abcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0xFF}, 300))
	f.Add(bytes.Repeat([]byte("low entropy low entropy "), 40))
	f.Add([]byte{0xEC, 0x40, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // frame-ish bytes
	// Annotated frame shapes: a healthy-looking header with an
	// annotation, a truncated one cut inside the annotation region, and
	// one whose annotation carries an unknown TLV kind with a lying
	// length — the reader must error cleanly, never panic.
	if v4, _, err := AppendFrameOpts(nil, nil, None, []byte("seed"), FrameOpts{Seq: 3, HasSeq: true, Anno: []byte{0x01, 2, 7, 8}}); err == nil {
		f.Add(v4)
		f.Add(v4[:len(v4)-6])
	}
	f.Add([]byte{0xEC, 0x40, 4, 0, 0, 4, 4, 1, 3, 0x7F, 0xFF, 0x02})                                       // unknown kind, hostile TLV length
	f.Add([]byte{0xEC, 0x40, 4, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})                              // hostile annoLen varint
	f.Add(append([]byte{0xEC, 0x40, 4, 0, 0}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7E)) // overflowing origLen varint
}

func FuzzRoundtripAllMethods(f *testing.F) {
	fuzzSeeds(f)
	reg := WithArithmetic()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range allMethods {
			c, _ := reg.Get(m)
			out, err := c.Compress(data)
			if err != nil {
				t.Fatalf("%v compress: %v", m, err)
			}
			back, err := c.Decompress(out, len(data))
			if err != nil {
				t.Fatalf("%v decompress: %v", m, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("%v roundtrip mismatch", m)
			}
		}
	})
}

func FuzzDecompressNeverPanics(f *testing.F) {
	fuzzSeeds(f)
	reg := WithArithmetic()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []Method{Huffman, Arithmetic, LempelZiv, BurrowsWheeler} {
			c, _ := reg.Get(m)
			// Arbitrary bytes with arbitrary claimed lengths: errors are
			// fine, panics and runaway allocations are not.
			for _, claim := range []int{0, 1, len(data), len(data) * 3, 1 << 16} {
				_, _ = c.Decompress(data, claim)
			}
		}
	})
}

func FuzzFrameReaderNeverPanics(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), nil)
		for i := 0; i < 16; i++ {
			if _, _, err := fr.ReadBlock(); err != nil {
				return
			}
		}
	})
}

func FuzzFrameRoundtrip(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte("abcabcabcabc"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint8(4))
	f.Add(bytes.Repeat([]byte("low entropy "), 40), uint8(1))
	reg := WithArithmetic()
	f.Fuzz(func(t *testing.T, data []byte, methodByte uint8) {
		m := allMethods[int(methodByte)%len(allMethods)]
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf, reg)
		if _, err := fw.WriteBlock(m, data); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, info, err := NewFrameReader(&buf, reg).ReadBlock()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("payload mismatch")
		}
		if info.OrigLen != len(data) {
			t.Fatalf("OrigLen = %d", info.OrigLen)
		}
	})
}

// FuzzFrameAnnoRoundtrip drives arbitrary annotation bytes through the
// writer and reader: whatever TLV soup the annotation holds, the frame must
// round-trip it verbatim (the frame layer treats it as opaque).
func FuzzFrameAnnoRoundtrip(f *testing.F) {
	f.Add([]byte("payload"), []byte{0x01, 2, 7, 8}, uint64(1))
	f.Add([]byte(nil), []byte{0x7F, 0}, uint64(0))
	f.Add(bytes.Repeat([]byte("x"), 100), bytes.Repeat([]byte{0x80}, 40), uint64(1<<40))
	f.Fuzz(func(t *testing.T, data, anno []byte, seq uint64) {
		if len(anno) > MaxAnnoLen {
			anno = anno[:MaxAnnoLen]
		}
		// Sequence numbers start at 1: a drawn 0 is the unsequenced frame.
		frame, _, err := AppendFrameOpts(nil, nil, LempelZiv, data, FrameOpts{Seq: seq, HasSeq: seq != 0, Anno: anno})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		got, info, err := NewFrameReader(bytes.NewReader(frame), nil).ReadBlock()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("payload mismatch")
		}
		if !bytes.Equal(info.Anno, anno) {
			t.Fatalf("anno mismatch: %x != %x", info.Anno, anno)
		}
		if info.Seq != seq || info.HasSeq != (seq != 0) {
			t.Fatalf("seq = (%d, %v), want %d", info.Seq, info.HasSeq, seq)
		}
	})
}
