package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// annotated frame coverage: round-trips, size caps, CRC coverage of the
// annotation region, truncation behaviour, and scratch-reuse safety of the
// returned Anno slice.

func TestFrameAnnoRoundtrip(t *testing.T) {
	anno := []byte{0x01, 3, 0x10, 0x20, 0x30, 0x7F, 2, 9, 9} // trace-ish TLV + unknown kind
	data := bytes.Repeat([]byte("annotated frame payload "), 16)
	for _, m := range []Method{None, LempelZiv, Huffman} {
		var buf bytes.Buffer
		frame, info, err := AppendFrameOpts(nil, nil, m, data, FrameOpts{Seq: 42, HasSeq: true, Anno: anno})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		buf.Write(frame)
		got, rinfo, err := NewFrameReader(&buf, nil).ReadBlock()
		if err != nil {
			t.Fatalf("%v read: %v", m, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v payload mismatch", m)
		}
		if !rinfo.HasSeq || rinfo.Seq != 42 {
			t.Fatalf("%v seq = (%d, %v)", m, rinfo.Seq, rinfo.HasSeq)
		}
		if !bytes.Equal(rinfo.Anno, anno) {
			t.Fatalf("%v anno = %x want %x", m, rinfo.Anno, anno)
		}
		if !bytes.Equal(info.Anno, anno) {
			t.Fatalf("%v writer info anno = %x", m, info.Anno)
		}
	}
}

func TestFrameAnnoTooLong(t *testing.T) {
	_, _, err := AppendFrameOpts(nil, nil, None, []byte("x"), FrameOpts{Anno: make([]byte, MaxAnnoLen+1)})
	if err == nil {
		t.Fatal("oversized annotation accepted")
	}
}

// Every byte of the annotation region is CRC-covered: flipping any one must
// surface as ErrCorruptFrame, never as a silently different annotation.
func TestFrameAnnoCRCCoverage(t *testing.T) {
	anno := []byte{0x01, 4, 1, 2, 3, 4}
	frame, _, err := AppendFrameOpts(nil, nil, None, []byte("payload"), FrameOpts{Seq: 5, HasSeq: true, Anno: anno})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the annotation: header is magic(2) ver(1) method(1) flags(1)
	// origLen(1) compLen(1) seq(1) annoLen(1) then anno.
	start := 9
	for at := start; at < start+len(anno); at++ {
		mut := append([]byte(nil), frame...)
		mut[at] ^= 0x40
		_, _, rerr := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
		if !errors.Is(rerr, ErrCorruptFrame) {
			t.Fatalf("flip at %d: got %v, want ErrCorruptFrame", at, rerr)
		}
	}
}

// Truncating a frame at any boundary must yield io.ErrUnexpectedEOF (or
// clean io.EOF at offset zero), never a panic or a bogus success.
func TestFrameAnnoTruncation(t *testing.T) {
	anno := []byte{0x01, 8, 1, 2, 3, 4, 5, 6, 7, 8}
	frame, _, err := AppendFrameOpts(nil, nil, LempelZiv, bytes.Repeat([]byte("truncate me "), 12), FrameOpts{Seq: 9, HasSeq: true, Anno: anno})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		_, _, rerr := NewFrameReader(bytes.NewReader(frame[:cut]), nil).ReadBlock()
		switch {
		case cut == 0 && rerr != io.EOF:
			t.Fatalf("cut 0: got %v, want io.EOF", rerr)
		case cut > 0 && rerr == nil:
			t.Fatalf("cut %d: truncated frame decoded", cut)
		}
	}
}

// A hostile annoLen varint must be rejected before allocation.
func TestFrameAnnoHostileLength(t *testing.T) {
	frame, _, err := AppendFrameOpts(nil, nil, None, []byte("x"), FrameOpts{Seq: 1, HasSeq: true, Anno: []byte{0x01, 1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), frame...)
	// annoLen byte sits at offset 8; replace with a 5-byte varint claiming
	// ~512 MiB. The splice invalidates the CRC too, but the length check
	// must fire first (ErrFrameSize, not ErrChecksum).
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	mut = append(mut[:8:8], append(big, mut[9:]...)...)
	_, _, rerr := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
	if !errors.Is(rerr, ErrFrameSize) {
		t.Fatalf("got %v, want ErrFrameSize", rerr)
	}
}

// BlockInfo.Anno must survive the reader's scratch reuse: reading the next
// frame may not clobber the previous frame's annotation.
func TestFrameAnnoOutlivesNextRead(t *testing.T) {
	annoA := []byte{0x01, 2, 0xAA, 0xAB}
	annoB := []byte{0x01, 2, 0xBB, 0xBC}
	var buf bytes.Buffer
	for _, anno := range [][]byte{annoA, annoB} {
		frame, _, err := AppendFrameOpts(nil, nil, None, []byte("block"), FrameOpts{Seq: 1, HasSeq: true, Anno: anno})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	fr := NewFrameReader(&buf, nil)
	_, infoA, err := fr.ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.ReadBlock(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(infoA.Anno, annoA) {
		t.Fatalf("first frame's anno clobbered by second read: %x", infoA.Anno)
	}
}

// A corrupt annotated frame must resync like any other.
func TestFrameAnnoResync(t *testing.T) {
	anno := []byte{0x01, 2, 1, 2}
	good, _, err := AppendFrameOpts(nil, nil, None, []byte("survivor"), FrameOpts{Seq: 2, HasSeq: true, Anno: anno})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF // payload damage
	stream := append(append([]byte{0xDE, 0xAD}, bad...), good...)
	fr := NewFrameReader(bytes.NewReader(stream), nil)
	var recovered bool
	for i := 0; i < 8; i++ {
		data, info, err := fr.ReadBlock()
		if err == nil {
			if string(data) != "survivor" || !bytes.Equal(info.Anno, anno) {
				t.Fatalf("recovered wrong frame: %q anno %x", data, info.Anno)
			}
			recovered = true
			break
		}
		if errors.Is(err, ErrCorruptFrame) {
			if rerr := fr.Resync(); rerr != nil {
				t.Fatalf("resync: %v", rerr)
			}
			continue
		}
		t.Fatalf("read: %v", err)
	}
	if !recovered {
		t.Fatal("never recovered the healthy frame")
	}
}

// The one TLV walk: a record is found behind records of other kinds, a
// block without it or with a lying length yields nothing, and a close
// record must carry at least its reason byte.
func TestAnnoRecordWalk(t *testing.T) {
	block := AppendAnnoRecord(nil, AnnoKindTrace, []byte{1, 2, 3})
	block = AppendAnnoRecord(block, 0x7F, nil)
	block = AppendCloseAnno(block, CloseSlowConsumer, "too slow")
	if body, ok := AnnoRecord(block, AnnoKindTrace); !ok || !bytes.Equal(body, []byte{1, 2, 3}) {
		t.Fatalf("trace record = %x, %v", body, ok)
	}
	if body, ok := AnnoRecord(block, 0x7F); !ok || len(body) != 0 {
		t.Fatalf("empty record = %x, %v", body, ok)
	}
	if reason, msg, ok := ParseCloseAnno(block); !ok || reason != CloseSlowConsumer || msg != "too slow" {
		t.Fatalf("close record = %v %q %v", reason, msg, ok)
	}
	for _, bad := range [][]byte{
		nil,
		{AnnoKindClose},         // kind with no length
		{AnnoKindClose, 200, 1}, // length overruns the block
		{0x7F, 5, 1, 2},         // unknown kind overrunning
		AppendAnnoRecord(nil, AnnoKindTrace, []byte{9}), // no close record at all
		AppendAnnoRecord(nil, AnnoKindClose, nil),       // close record without a reason byte
		bytes.Repeat([]byte{0x80}, 16),                  // varint garbage
	} {
		if reason, msg, ok := ParseCloseAnno(bad); ok {
			t.Fatalf("ParseCloseAnno(%x) = %v %q, want none", bad, reason, msg)
		}
	}
}
