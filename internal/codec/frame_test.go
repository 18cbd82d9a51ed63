package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
)

// TestResyncRecoversSwallowedFrame grows the first frame's compLen so that
// its payload read swallows the first k bytes of the next frame, for every k
// up to that frame's length. Resync must push back the whole failed attempt
// in stream order, header tail and payload alike, so the swallowed frame is
// found again wherever its boundary fell.
func TestResyncRecoversSwallowedFrame(t *testing.T) {
	// 200-byte blocks: both length uvarints take two bytes, so the header
	// outgrows the first read and its tail shares buf with the payload.
	blocks := [][]byte{bytes.Repeat([]byte("a"), 200), bytes.Repeat([]byte("b"), 200), bytes.Repeat([]byte("c"), 200)}
	var wire []byte
	for i, b := range blocks {
		var err error
		if wire, _, err = AppendFrameOpts(wire, nil, None, b, FrameOpts{Seq: uint64(i + 1), HasSeq: true}); err != nil {
			t.Fatal(err)
		}
	}
	first := len(wire) / 3 // the three frames are the same length
	for k := 1; k <= first; k++ {
		t.Run(fmt.Sprintf("swallow %d", k), func(t *testing.T) {
			mut := append([]byte(nil), wire...)
			binary.PutUvarint(mut[7:9], uint64(200+k)) // compLen, still two bytes
			fr := NewFrameReader(bytes.NewReader(mut), nil)
			var got [][]byte
			for {
				data, _, err := fr.ReadBlock()
				if err == io.EOF {
					break
				}
				if errors.Is(err, ErrCorruptFrame) {
					if err := fr.Resync(); err != nil {
						t.Fatalf("resync: %v", err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, data)
			}
			if len(got) != 2 || !bytes.Equal(got[0], blocks[1]) || !bytes.Equal(got[1], blocks[2]) {
				t.Fatalf("recovered %d blocks, want the second and third", len(got))
			}
		})
	}
}

// TestReaderStalledHeadersHoldLittle: eight peers each send a 19-byte frame
// header that declares a MaxFrameLen payload, then stall. The readers'
// payload buffers grow only with the bytes that arrive, so together they
// hold well under 1 MiB, not eight declared frames.
func TestReaderStalledHeadersHoldLittle(t *testing.T) {
	hdr := []byte{magic0, magic1, FrameVersion, byte(None), 0}
	hdr = binary.AppendUvarint(hdr, MaxFrameLen) // origLen
	hdr = binary.AppendUvarint(hdr, MaxFrameLen) // compLen
	hdr = append(hdr, 0, 0, 0, 0, 0, 0)          // seq, annoLen, CRC
	if len(hdr) != 19 {
		t.Fatalf("header is %d bytes, want 19", len(hdr))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		c1, c2 := net.Pipe()
		defer c2.Close()
		go func() {
			_, _, err := NewFrameReader(c1, nil).ReadBlock()
			done <- err
		}()
		// A pipe write returns once the reader has taken every byte: the
		// last of them are read into the payload buffer.
		if _, err := c2.Write(hdr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 1<<20 {
		t.Fatalf("eight stalled headers hold %d bytes of heap, want < 1 MiB", grew)
	}
}
