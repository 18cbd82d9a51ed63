package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// mustFrame appends one frame of data compressed with m.
func mustFrame(t *testing.T, dst []byte, m Method, data []byte) []byte {
	t.Helper()
	out, _, err := AppendFrameOpts(dst, nil, m, data, FrameOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorruptErrorsAreTyped(t *testing.T) {
	payload := bytes.Repeat([]byte("typed errors "), 100)
	frame := mustFrame(t, nil, LempelZiv, payload)
	crcAt := len(frame) - len(payloadOf(t, frame)) - 4

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), frame...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"magic", mutate(func(b []byte) { b[0] = 0 })},
		{"version", mutate(func(b []byte) { b[2] = 77 })},
		{"method byte", mutate(func(b []byte) { b[3] ^= 0xFF })},
		{"flags byte", mutate(func(b []byte) { b[4] ^= 0x02 })},
		{"length varint", mutate(func(b []byte) { b[5] ^= 0x01 })},
		{"payload", mutate(func(b []byte) { b[len(b)-1] ^= 0x10 })},
		{"seq varint", mutate(func(b []byte) { b[crcAt-2] ^= 0x01 })},
		{"crc field", mutate(func(b []byte) { b[crcAt] ^= 0x01 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := NewFrameReader(bytes.NewReader(tc.in), nil).ReadBlock()
			if err == nil {
				t.Fatal("corruption decoded cleanly")
			}
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("%v does not satisfy ErrCorruptFrame", err)
			}
		})
	}
	// Truncation is NOT corruption: the stream ended, resync is pointless.
	_, _, err := NewFrameReader(bytes.NewReader(frame[:len(frame)-3]), nil).ReadBlock()
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncation: got %v", err)
	}
	if errors.Is(err, ErrCorruptFrame) {
		t.Fatal("truncation must not read as frame corruption")
	}
}

// TestHeaderCorruptionDetected: the CRC covers the header, so no flipped
// header bit can misparse silently into different data.
func TestHeaderCorruptionDetected(t *testing.T) {
	payload := bytes.Repeat([]byte("header coverage "), 64)
	frame := mustFrame(t, nil, Huffman, payload)
	crcStart := len(frame) - len(payloadOf(t, frame)) - 4
	for i := 0; i < crcStart; i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			data, _, err := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
			if err == nil && !bytes.Equal(data, payload) {
				t.Fatalf("flip of header byte %d bit %d decoded to wrong data", i, bit)
			}
		}
	}
}

// payloadOf decodes a healthy frame to learn its on-wire payload length.
func payloadOf(t *testing.T, frame []byte) []byte {
	t.Helper()
	_, info, err := NewFrameReader(bytes.NewReader(frame), nil).ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	return make([]byte, info.CompLen)
}

func TestResyncSkipsCorruptPayload(t *testing.T) {
	blocks := [][]byte{
		bytes.Repeat([]byte("block zero "), 80),
		bytes.Repeat([]byte("block one "), 80),
		bytes.Repeat([]byte("block two "), 80),
		bytes.Repeat([]byte("block three "), 80),
	}
	var wire []byte
	var starts []int
	for _, b := range blocks {
		starts = append(starts, len(wire))
		wire = mustFrame(t, wire, LempelZiv, b)
	}
	// Poison block 1's payload.
	wire[starts[1]+16] ^= 0x20

	fr := NewFrameReader(bytes.NewReader(wire), nil)
	var got [][]byte
	corrupt := 0
	for {
		data, _, err := fr.ReadBlock()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrCorruptFrame) {
			corrupt++
			if rerr := fr.Resync(); rerr != nil {
				if rerr == io.EOF {
					break
				}
				t.Fatal(rerr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data)
	}
	if corrupt == 0 {
		t.Fatal("corruption went unnoticed")
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d of 3 healthy blocks", len(got))
	}
	for i, want := range [][]byte{blocks[0], blocks[2], blocks[3]} {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("recovered block %d mismatch", i)
		}
	}
}

// TestResyncAfterBogusLength corrupts a length varint so the reader
// swallows part of the following frame; Resync must still find a later
// boundary and the CRC must reject any misaligned parse.
func TestResyncAfterBogusLength(t *testing.T) {
	blocks := make([][]byte, 6)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte('a' + i)}, 400+i*31)
	}
	var wire []byte
	var starts []int
	for _, b := range blocks {
		starts = append(starts, len(wire))
		wire = mustFrame(t, wire, Huffman, b)
	}
	wire[starts[1]+6] ^= 0x7F // somewhere in the varints

	fr := NewFrameReader(bytes.NewReader(wire), nil)
	var got [][]byte
	for {
		data, _, err := fr.ReadBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) && err != io.ErrUnexpectedEOF {
				t.Fatalf("unexpected error class: %v", err)
			}
			if errors.Is(err, ErrCorruptFrame) {
				if rerr := fr.Resync(); rerr != nil {
					break
				}
				continue
			}
			break
		}
		got = append(got, data)
	}
	if len(got) < 3 {
		t.Fatalf("only %d blocks survived a single flipped varint", len(got))
	}
	// Every recovered block must be byte-identical to one of the originals.
	for i, g := range got {
		ok := false
		for _, b := range blocks {
			if bytes.Equal(g, b) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("recovered block %d matches no original (len %d)", i, len(g))
		}
	}
}

func TestResyncOnGarbagePrefix(t *testing.T) {
	payload := bytes.Repeat([]byte("after the noise "), 60)
	junk := bytes.Repeat([]byte{0xEC, 0x13, 0x40, 0x00}, 64) // magic-ish noise
	wire := append([]byte(nil), junk...)
	wire = mustFrame(t, wire, BurrowsWheeler, payload)

	fr := NewFrameReader(bytes.NewReader(wire), nil)
	for tries := 0; tries < 300; tries++ {
		data, _, err := fr.ReadBlock()
		if err == nil {
			if !bytes.Equal(data, payload) {
				t.Fatal("decoded wrong payload")
			}
			return
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Fatalf("stream ended before recovering the frame: %v", err)
		}
		if rerr := fr.Resync(); rerr != nil {
			t.Fatalf("resync: %v", rerr)
		}
	}
	t.Fatal("never recovered the healthy frame")
}

func TestResyncAtEOFReturnsEOF(t *testing.T) {
	frame := mustFrame(t, nil, None, []byte("solo"))
	mut := append([]byte(nil), frame...)
	mut[len(mut)-1] ^= 0x01
	fr := NewFrameReader(bytes.NewReader(mut), nil)
	if _, _, err := fr.ReadBlock(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("got %v", err)
	}
	if err := fr.Resync(); err != io.EOF {
		t.Fatalf("resync on exhausted stream: got %v want io.EOF", err)
	}
}
