package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// TestFrameOptsZeroValueIsUnsequenced: FrameOpts{} writes the seq field as
// 0 and reads back HasSeq=false, with no annotation; asking for a sequence
// number and giving 0 is an append error, since 0 on the wire means none.
func TestFrameOptsZeroValueIsUnsequenced(t *testing.T) {
	frame, winfo, err := AppendFrameOpts(nil, nil, None, []byte("plain"), FrameOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, info, err := NewFrameReader(bytes.NewReader(frame), nil).ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "plain" || info.HasSeq || info.Seq != 0 || info.Anno != nil {
		t.Fatalf("read %q, info %+v; want an unsequenced, unannotated frame", data, info)
	}
	if winfo.HasSeq || winfo.Anno != nil {
		t.Fatalf("writer info %+v", winfo)
	}
	if frame[2] != FrameVersion {
		t.Fatalf("version byte = %d, want %d", frame[2], FrameVersion)
	}
	dst := []byte("kept")
	out, _, err := AppendFrameOpts(dst, nil, None, []byte("x"), FrameOpts{HasSeq: true})
	if err == nil {
		t.Fatal("FrameOpts{HasSeq: true} with Seq 0 was accepted")
	}
	if string(out) != "kept" {
		t.Fatalf("failed append returned %q, want dst untouched", out)
	}
}

// TestFrameUvarintOverflow: a header uvarint that does not fit 64 bits is a
// corrupt frame, never a silently truncated value. Each case puts its bytes
// in the seq field (the one header varint with no range check of its own)
// of an otherwise valid empty frame.
func TestFrameUvarintOverflow(t *testing.T) {
	rep := func(b byte, n int, last ...byte) []byte { return append(bytes.Repeat([]byte{b}, n), last...) }
	cases := []struct {
		name    string
		seq     []byte
		want    uint64
		corrupt bool
	}{
		{"one byte", []byte{0x05}, 5, false},
		{"max uint64", rep(0xFF, 9, 0x01), math.MaxUint64, false},
		{"tenth byte too large", rep(0x80, 9, 0x7E), 0, true},
		{"all ones then 7e", rep(0xFF, 9, 0x7E), 0, true},
		{"eleven bytes", rep(0xFF, 10, 0x01), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := []byte{magic0, magic1, FrameVersion, byte(None), 0, 0, 0}
			frame = append(frame, tc.seq...)
			frame = append(frame, 0) // annoLen
			frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
			_, info, err := NewFrameReader(bytes.NewReader(frame), nil).ReadBlock()
			if tc.corrupt {
				if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("got seq %d err %v, want ErrCorruptFrame", info.Seq, err)
				}
				return
			}
			if err != nil || info.Seq != tc.want {
				t.Fatalf("seq = %d, err %v; want %d", info.Seq, err, tc.want)
			}
		})
	}
}

// TestAppendFrameSeqRoundtrip checks that sequenced frames carry their
// sequence number through every method, across the varint width range.
func TestAppendFrameSeqRoundtrip(t *testing.T) {
	payload := bytes.Repeat([]byte("sequenced frame payload "), 32)
	seqs := []uint64{1, 2, 127, 128, 1 << 20, math.MaxUint64}
	reg := WithArithmetic()
	for _, m := range allMethods {
		var wire []byte
		for _, seq := range seqs {
			frame, info, err := AppendFrameOpts(nil, reg, m, payload, FrameOpts{Seq: seq, HasSeq: true})
			if err != nil {
				t.Fatalf("%v seq %d: %v", m, seq, err)
			}
			if !info.HasSeq || info.Seq != seq {
				t.Fatalf("%v writer info seq = (%d, %v)", m, info.Seq, info.HasSeq)
			}
			wire = append(wire, frame...)
		}
		fr := NewFrameReader(bytes.NewReader(wire), reg)
		for _, seq := range seqs {
			data, info, err := fr.ReadBlock()
			if err != nil {
				t.Fatalf("%v read seq %d: %v", m, seq, err)
			}
			if !info.HasSeq || info.Seq != seq {
				t.Fatalf("%v reader seq = (%d, %v), want %d", m, info.Seq, info.HasSeq, seq)
			}
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v seq %d payload mismatch", m, seq)
			}
		}
		if _, _, err := fr.ReadBlock(); err != io.EOF {
			t.Fatalf("%v trailing read = %v, want EOF", m, err)
		}
	}
}

// TestSeqFrameCRCCoversSeq flips each byte of the seq varint and expects
// checksum failures: the sequence number is integrity-protected like every
// other header field.
func TestSeqFrameCRCCoversSeq(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64)
	frame, _, err := AppendFrameOpts(nil, nil, None, payload, FrameOpts{Seq: 1 << 40, HasSeq: true}) // 6-byte varint
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic(2) ver(1) method(1) flags(1) origLen(1) compLen(1),
	// then the seq varint.
	for at := 7; at < 13; at++ {
		mut := append([]byte(nil), frame...)
		mut[at] ^= 0x10
		_, _, err := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip seq byte %d: got %v, want ErrCorruptFrame", at, err)
		}
	}
}

// TestSeqFrameFallback: the raw-fallback path must preserve the sequence
// number too.
func TestSeqFrameFallback(t *testing.T) {
	incompressible := make([]byte, 256)
	for i := range incompressible {
		incompressible[i] = byte(i * 151)
	}
	frame, winfo, err := AppendFrameOpts(nil, nil, BurrowsWheeler, incompressible, FrameOpts{Seq: 42, HasSeq: true})
	if err != nil {
		t.Fatal(err)
	}
	if !winfo.Fallback {
		t.Skip("payload unexpectedly compressed; fallback path not exercised")
	}
	data, info, err := NewFrameReader(bytes.NewReader(frame), nil).ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasSeq || info.Seq != 42 || !info.Fallback || info.Method != None {
		t.Fatalf("info = %+v", info)
	}
	if !bytes.Equal(data, incompressible) {
		t.Fatal("fallback payload mismatch")
	}
}

// TestSeqFrameResync: a corrupted sequenced frame must still be skippable,
// with Resync landing on the next (sequenced) boundary.
func TestSeqFrameResync(t *testing.T) {
	payload := bytes.Repeat([]byte("resync me "), 40)
	var wire []byte
	for seq := uint64(1); seq <= 3; seq++ {
		frame, _, err := AppendFrameOpts(nil, nil, Huffman, payload, FrameOpts{Seq: seq, HasSeq: true})
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, frame...)
	}
	wire[20] ^= 0xFF // damage frame 1's body
	fr := NewFrameReader(bytes.NewReader(wire), nil)
	var got []uint64
	for {
		_, info, err := fr.ReadBlock()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrCorruptFrame) {
			if rerr := fr.Resync(); rerr != nil {
				break
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, info.Seq)
	}
	if len(got) < 2 || got[len(got)-1] != 3 {
		t.Fatalf("recovered seqs %v, want suffix ending at 3 with ≥2 survivors", got)
	}
}
