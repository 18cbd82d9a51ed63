package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ccx/internal/codec"
	"ccx/internal/tracing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire-format vectors under testdata/")

// goldenPayload is the canonical plaintext all golden frames carry: long
// enough that every method genuinely compresses it (no raw fallback), small
// enough to keep the vectors tiny.
var goldenPayload = bytes.Repeat(
	[]byte("configurable compression exchanges data efficiently across heterogeneous links. "), 8)

var goldenMethods = []codec.Method{codec.None, codec.Huffman, codec.Arithmetic, codec.LempelZiv, codec.BurrowsWheeler}

// goldenCodecs speaks every golden method, arithmetic included.
var goldenCodecs = codec.WithArithmetic()

// goldenSeq is the sequence number stamped into the vectors: large enough
// to need a two-byte varint, so the seq field's wire width is pinned too.
const goldenSeq = 300

// goldenTC is the trace context stamped into the vectors' annotation,
// pinning the TLV layout (kind, uvarint length, uvarint-encoded id and
// clocks) alongside the frame header itself.
var (
	goldenTC   = tracing.Context{Trace: 0xABCD1234, WallNs: 1700000000000000000, MonoNs: 123456789}
	goldenAnno = goldenTC.AppendAnno(nil)
	goldenOpts = codec.FrameOpts{Seq: goldenSeq, HasSeq: true, Anno: goldenAnno}
)

func goldenName(version int, m codec.Method) string {
	name := m.String()
	switch m {
	case codec.LempelZiv:
		name = "lempelziv"
	case codec.BurrowsWheeler:
		name = "burrowswheeler"
	}
	return fmt.Sprintf("v%d_%s.frame", version, name)
}

// retiredFrame hand-builds goldenPayload in one of the layouts ccx no longer
// speaks: version 1 (no seq, CRC over the payload only), 2 (CRC over header
// and payload) or 3 (version 2 plus a seq uvarint).
func retiredFrame(t *testing.T, version int, m codec.Method) []byte {
	t.Helper()
	c, err := goldenCodecs.Get(m)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.Compress(goldenPayload)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	frame := []byte{0xEC, 0x40, byte(version), byte(m), 0}
	frame = binary.AppendUvarint(frame, uint64(len(goldenPayload)))
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	if version == 3 {
		frame = binary.AppendUvarint(frame, goldenSeq)
	}
	crc := crc32.Checksum(payload, castagnoli)
	if version >= 2 {
		crc = crc32.Update(crc32.Checksum(frame, castagnoli), castagnoli, payload)
	}
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	return append(frame, payload...)
}

// TestGoldenWireVectors pins the wire format from both sides. The
// checked-in frames (one per method) must decode byte-for-byte to
// goldenPayload forever and AppendFrameOpts must still emit them: a refactor
// that changes header layout, CRC coverage, varint encoding, or any
// decoder's view of a valid stream fails here. The v1–v3 arms pin the other
// side: the same payload in a retired layout is refused as ErrBadVersion
// and Resync steps past it onto the golden frame that follows.
func TestGoldenWireVectors(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, m := range goldenMethods {
			frame, info, err := codec.AppendFrameOpts(nil, goldenCodecs, m, goldenPayload, goldenOpts)
			if err != nil {
				t.Fatal(err)
			}
			if info.Fallback {
				t.Fatalf("%v fell back to raw; pick a more compressible golden payload", m)
			}
			if err := os.WriteFile(filepath.Join("testdata", goldenName(codec.FrameVersion, m)), frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden vectors rewritten")
	}

	// checkGolden asserts one decoded block is the golden frame's.
	checkGolden := func(t *testing.T, m codec.Method, data []byte, info codec.BlockInfo) {
		t.Helper()
		if !bytes.Equal(data, goldenPayload) {
			t.Fatal("decoded payload differs from canonical plaintext")
		}
		if info.Method != m || info.Fallback {
			t.Fatalf("info = %+v, want method %v without fallback", info, m)
		}
		if info.OrigLen != len(goldenPayload) {
			t.Fatalf("OrigLen = %d", info.OrigLen)
		}
		if m != codec.None && info.CompLen >= info.OrigLen {
			t.Fatalf("golden %v frame is not actually compressed", m)
		}
		if !info.HasSeq || info.Seq != goldenSeq {
			t.Fatalf("seq = (%d, %v), want (%d, true)", info.Seq, info.HasSeq, goldenSeq)
		}
		if !bytes.Equal(info.Anno, goldenAnno) {
			t.Fatalf("anno = %x, want %x", info.Anno, goldenAnno)
		}
		if tc := tracing.ParseAnno(info.Anno); tc != goldenTC {
			t.Fatalf("trace context = %+v", tc)
		}
	}

	for _, m := range goldenMethods {
		golden, err := os.ReadFile(filepath.Join("testdata", goldenName(codec.FrameVersion, m)))
		if err != nil {
			t.Fatalf("missing golden vector (regenerate with -update-golden): %v", err)
		}
		for _, version := range []int{1, 2, 3} {
			t.Run(goldenName(version, m), func(t *testing.T) {
				stream := append(retiredFrame(t, version, m), golden...)
				fr := codec.NewFrameReader(bytes.NewReader(stream), goldenCodecs)
				_, _, err := fr.ReadBlock()
				if !errors.Is(err, codec.ErrBadVersion) || !errors.Is(err, codec.ErrCorruptFrame) {
					t.Fatalf("v%d frame: got %v, want ErrBadVersion", version, err)
				}
				// The retired frame's payload may hold a false boundary or
				// two; each costs one more corrupt read, never the stream.
				for tries := 0; tries < 64; tries++ {
					if err := fr.Resync(); err != nil {
						t.Fatalf("resync: %v", err)
					}
					data, info, err := fr.ReadBlock()
					if err == nil {
						checkGolden(t, m, data, info)
						return
					}
					if !errors.Is(err, codec.ErrCorruptFrame) {
						t.Fatalf("read after resync: %v", err)
					}
				}
				t.Fatal("never reached the golden frame behind the retired one")
			})
		}
		t.Run(goldenName(codec.FrameVersion, m), func(t *testing.T) {
			data, info, err := codec.NewFrameReader(bytes.NewReader(golden), goldenCodecs).ReadBlock()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			checkGolden(t, m, data, info)
			if m == codec.Arithmetic {
				if _, _, err := codec.NewFrameReader(bytes.NewReader(golden), nil).ReadBlock(); err == nil {
					t.Fatal("the built-in registry decoded an arithmetic frame")
				}
			}

			// Encoder wire stability.
			enc, _, err := codec.AppendFrameOpts(nil, goldenCodecs, m, goldenPayload, goldenOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, golden) {
				t.Fatal("AppendFrameOpts no longer reproduces the golden frame")
			}

			// Integrity: every byte before the payload end is CRC-protected;
			// flip a header byte and a payload byte.
			for _, at := range []int{3, len(golden) - 1} {
				mut := append([]byte(nil), golden...)
				mut[at] ^= 0x08
				if _, _, err := codec.NewFrameReader(bytes.NewReader(mut), goldenCodecs).ReadBlock(); !errors.Is(err, codec.ErrCorruptFrame) {
					t.Fatalf("flip at %d: got %v, want ErrCorruptFrame", at, err)
				}
			}
		})
	}

	// Decode-only: the Burrows-Wheeler frame as written while rotations were
	// sorted by prefix doubling. goldenPayload is one sentence eight times
	// over, so eight rows of its rotation matrix equal it; that sort left the
	// chunk's own row fourth among them, the linear-time sort names the first
	// (the format's rule since), and both must decode to the same text.
	t.Run("v4_burrowswheeler_doubling.frame", func(t *testing.T) {
		old, err := os.ReadFile(filepath.Join("testdata", "v4_burrowswheeler_doubling.frame"))
		if err != nil {
			t.Fatal(err)
		}
		data, info, err := codec.NewFrameReader(bytes.NewReader(old), nil).ReadBlock()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		checkGolden(t, codec.BurrowsWheeler, data, info)
	})
}
