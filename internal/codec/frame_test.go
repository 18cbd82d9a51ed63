package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
