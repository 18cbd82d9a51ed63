package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
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

// FuzzFrameReaderChunking: how a stream cuts its bytes into reads must not
// change what a FrameReader makes of them. The same bytes through one
// bytes.Reader, one byte per Read and seeded random chunks yield the same
// blocks, BlockInfo and error classes, with a Resync after each corrupt
// frame.
func FuzzFrameReaderChunking(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "v4_*.frame"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("golden frames: %v (%d found)", err, len(golden))
	}
	for i, name := range golden {
		frame, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, info, err := NewFrameReader(bytes.NewReader(frame), WithArithmetic()).ReadBlock()
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		// Each golden frame cut at every header offset: alone (truncation)
		// and in front of the whole frame (damage, then a healthy frame).
		for cut := 0; cut <= len(frame)-info.CompLen; cut++ {
			f.Add(frame[:cut], int64(i*100+cut))
			f.Add(append(frame[:cut:cut], frame...), int64(i*100+cut))
		}
	}
	// TestFrameSizeLimit's hostile headers.
	for _, lens := range [][2]uint64{{MaxFrameLen + 1, 0}, {0, MaxFrameLen + 1}, {1 << 34, 1 << 34}, {MaxFrameLen, 0}} {
		hdr := binary.AppendUvarint([]byte{magic0, magic1, FrameVersion, byte(None), 0}, lens[0])
		f.Add(binary.AppendUvarint(hdr, lens[1]), int64(lens[0]))
	}
	// TestFrameUvarintOverflow's frames.
	rep := func(b byte, n int, last byte) []byte { return append(bytes.Repeat([]byte{b}, n), last) }
	for _, seq := range [][]byte{{0x05}, rep(0xFF, 9, 0x01), rep(0x80, 9, 0x7E), rep(0xFF, 9, 0x7E), rep(0xFF, 10, 0x01)} {
		frame := append([]byte{magic0, magic1, FrameVersion, byte(None), 0, 0, 0}, seq...)
		frame = append(frame, 0)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
		f.Add(frame, int64(len(seq)))
	}
	reg := WithArithmetic()
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		want := frameEvents(bytes.NewReader(data), reg)
		for name, r := range map[string]io.Reader{
			"one byte":      iotest.OneByteReader(bytes.NewReader(data)),
			"random chunks": &chunkReader{b: data, rng: rand.New(rand.NewSource(seed))},
		} {
			if got := frameEvents(r, reg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: read %+v\nwhole: read %+v", name, got, want)
			}
		}
	})
}

// frameEvent is one ReadBlock or Resync outcome.
type frameEvent struct {
	Data  []byte
	Info  BlockInfo
	Class string
}

// frameEvents reads r to its end, resyncing after every corrupt frame.
func frameEvents(r io.Reader, reg *Registry) []frameEvent {
	fr := NewFrameReader(r, reg)
	var out []frameEvent
	for {
		data, info, err := fr.ReadBlock()
		info.DecodeTime = 0
		out = append(out, frameEvent{Data: data, Info: info, Class: errClass(err)})
		switch {
		case err == nil:
			continue
		case errors.Is(err, ErrCorruptFrame):
			err = fr.Resync()
			out = append(out, frameEvent{Class: "resync: " + errClass(err)})
			if err == nil {
				continue
			}
		}
		return out
	}
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCorruptFrame):
		return "corrupt"
	case err == io.ErrUnexpectedEOF, err == io.EOF:
		return err.Error()
	}
	return "other: " + err.Error()
}

// chunkReader hands out b in seeded random-length reads, the last one
// together with io.EOF.
type chunkReader struct {
	b   []byte
	rng *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := copy(p[:1+c.rng.Intn(min(len(p), len(c.b)))], c.b)
	c.b = c.b[n:]
	if len(c.b) == 0 {
		return n, io.EOF
	}
	return n, nil
}
