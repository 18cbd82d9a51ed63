package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// mixedStream is one frame of every kind the decode routine tells apart: a
// genuine raw frame, a compressing method that fell back to raw, compressed
// frames, an empty frame, and an empty annotated (close-style) frame.
func mixedStream(t *testing.T) (wire []byte, blocks [][]byte) {
	t.Helper()
	noise := make([]byte, 4<<10)
	rand.New(rand.NewSource(5)).Read(noise)
	text := bytes.Repeat([]byte("borrowed or owned, the bytes are the same. "), 200)
	anno := AppendAnnoRecord(nil, AnnoKindClose, []byte("\x01evicted: test"))
	for _, f := range []struct {
		m    Method
		data []byte
		opts FrameOpts
	}{
		{None, text, FrameOpts{}},
		{LempelZiv, noise, FrameOpts{}}, // expands: falls back to raw
		{LempelZiv, text, FrameOpts{Seq: 7, HasSeq: true}},
		{None, nil, FrameOpts{}},
		{BurrowsWheeler, text[:1000], FrameOpts{}},
		{None, noise, FrameOpts{Seq: 8, HasSeq: true}},
		{None, nil, FrameOpts{Anno: anno}},
		{Huffman, text, FrameOpts{}},
	} {
		var err error
		if wire, _, err = AppendFrameOpts(wire, nil, f.m, f.data, f.opts); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, f.data)
	}
	return wire, blocks
}

// TestReadBlockBorrowedMatchesReadBlock: both entry points run one decode
// routine, so block for block they agree on bytes and on BlockInfo; the only
// difference is who owns a raw block afterwards.
func TestReadBlockBorrowedMatchesReadBlock(t *testing.T) {
	wire, blocks := mixedStream(t)
	owned := NewFrameReader(bytes.NewReader(wire), nil)
	borrowed := NewFrameReader(bytes.NewReader(wire), nil)
	var kept [][]byte
	for i, want := range blocks {
		a, ai, err := owned.ReadBlock()
		if err != nil {
			t.Fatalf("frame %d: ReadBlock: %v", i, err)
		}
		b, bi, err := borrowed.ReadBlockBorrowed()
		if err != nil {
			t.Fatalf("frame %d: ReadBlockBorrowed: %v", i, err)
		}
		if !bytes.Equal(a, want) || !bytes.Equal(b, want) {
			t.Fatalf("frame %d: decoded bytes differ from the block sent", i)
		}
		ai.DecodeTime, bi.DecodeTime = 0, 0
		if ai.Method != bi.Method || ai.Fallback != bi.Fallback || ai.OrigLen != bi.OrigLen ||
			ai.CompLen != bi.CompLen || ai.Seq != bi.Seq || ai.HasSeq != bi.HasSeq || !bytes.Equal(ai.Anno, bi.Anno) {
			t.Fatalf("frame %d: info differs:\n owned    %+v\n borrowed %+v", i, ai, bi)
		}
		kept = append(kept, a) // ReadBlock's blocks are the caller's own
	}
	if _, _, err := borrowed.ReadBlockBorrowed(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for i, want := range blocks {
		if !bytes.Equal(kept[i], want) {
			t.Fatalf("block %d from ReadBlock did not survive the later reads", i)
		}
	}
}

// rawFrameWithOrigLen is a method-None frame whose header declares origLen
// for a payload of another length, with a checksum that matches: only the
// raw length check can catch it.
func rawFrameWithOrigLen(t *testing.T, payload []byte, origLen byte) []byte {
	t.Helper()
	if len(payload) >= 0x80 || origLen >= 0x80 {
		t.Fatal("helper patches a one-byte varint")
	}
	frame := mustFrame(t, nil, None, payload)
	const origLenAt, crcAt = 5, 9 // fixed(5) origLen compLen seq annoLen, then the CRC
	frame[origLenAt] = origLen
	crc := crc32.Update(0, castagnoli, frame[:crcAt])
	crc = crc32.Update(crc, castagnoli, frame[crcAt+4:])
	binary.LittleEndian.PutUint32(frame[crcAt:], crc)
	return frame
}

func TestRawLengthMismatchIsCorruptEitherWay(t *testing.T) {
	good := []byte("the frame after the damaged one")
	wire := rawFrameWithOrigLen(t, []byte("forty-two bytes of payload, says the wire."), 41)
	wire = mustFrame(t, wire, None, good)
	for name, read := range map[string]func(*FrameReader) ([]byte, BlockInfo, error){
		"ReadBlock":         (*FrameReader).ReadBlock,
		"ReadBlockBorrowed": (*FrameReader).ReadBlockBorrowed,
	} {
		t.Run(name, func(t *testing.T) {
			fr := NewFrameReader(bytes.NewReader(wire), nil)
			if data, _, err := read(fr); !errors.Is(err, ErrCorruptFrame) || data != nil {
				t.Fatalf("origLen != compLen on a raw frame: data %v, err %v; want ErrCorruptFrame", data, err)
			}
			if err := fr.Resync(); err != nil {
				t.Fatalf("Resync: %v", err)
			}
			data, _, err := read(fr)
			if err != nil || !bytes.Equal(data, good) {
				t.Fatalf("frame after resync: %q, %v", data, err)
			}
		})
	}
}
