package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// aliasingInput is compressible-but-varied data so every codec produces a
// non-trivial output worth mutating.
func aliasingInput(size int) []byte {
	rng := rand.New(rand.NewSource(99))
	src := make([]byte, size)
	for i := range src {
		if rng.Intn(4) == 0 {
			src[i] = byte(rng.Intn(256))
		} else {
			src[i] = byte('a' + i%7)
		}
	}
	return src
}

// corrupt flips every byte of b in place — the harshest mutation a caller
// who "owns" a buffer could apply.
func corrupt(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// TestEncodeAliasing enforces the Codec contract's compress half for every
// registered method: the returned buffer must alias neither src nor any
// retained codec state. The probe is behavioral — mutate the first output
// to bits, re-encode the same input, and demand a byte-identical second
// output; then mutate src and demand the second output stays intact. Any
// aliasing (a returned internal scratch buffer, an output window over src)
// fails one of the two comparisons. This is exactly the access pattern of
// the parallel pipeline, which recycles frame buffers through a sync.Pool
// while workers encode neighbouring blocks.
func TestEncodeAliasing(t *testing.T) {
	src := aliasingInput(32 << 10)
	reg := WithArithmetic()
	for _, m := range reg.Methods() {
		t.Run(m.String(), func(t *testing.T) {
			c, err := reg.Get(m)
			if err != nil {
				t.Fatal(err)
			}
			pristine := bytes.Clone(src)

			first, err := c.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(src, pristine) {
				t.Fatal("Compress mutated src")
			}
			want := bytes.Clone(first)
			corrupt(first) // caller owns the output: trash it

			second, err := c.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(second, want) {
				t.Fatal("re-encoding after mutating the previous output changed the result: Compress returned retained state")
			}
			corrupt(src) // src is the caller's to reuse immediately
			if !bytes.Equal(second, want) {
				t.Fatal("mutating src changed an already-returned output: Compress output aliases src")
			}
		})
	}
}

// TestDecodeAliasing enforces the decompress half: the returned block must
// be independent of src, because the framing layer hands Decompress its
// scratch buffer and overwrites it on the next frame.
func TestDecodeAliasing(t *testing.T) {
	src := aliasingInput(32 << 10)
	reg := WithArithmetic()
	for _, m := range reg.Methods() {
		t.Run(m.String(), func(t *testing.T) {
			c, err := reg.Get(m)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := c.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.Decompress(comp, len(src))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, src) {
				t.Fatal("round trip failed")
			}
			corrupt(comp) // simulate the FrameReader reusing its scratch
			if !bytes.Equal(out, src) {
				t.Fatal("mutating the compressed input changed an already-returned block: Decompress output aliases src")
			}
		})
	}
}

// TestFrameReaderScratchReuse is the frame-level aliasing case: blocks
// returned by consecutive ReadBlock calls must stay intact even though the
// reader reuses one payload scratch buffer across frames.
func TestFrameReaderScratchReuse(t *testing.T) {
	reg := WithArithmetic()
	blockA := aliasingInput(16 << 10)
	blockB := make([]byte, 16<<10) // all-zero: a very different payload
	var wire []byte
	var err error
	for _, m := range reg.Methods() {
		for _, b := range [][]byte{blockA, blockB} {
			wire, _, err = AppendFrameOpts(wire, reg, m, b, FrameOpts{})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire), reg)
	var decoded [][]byte
	for {
		data, _, err := fr.ReadBlock()
		if err != nil {
			break
		}
		decoded = append(decoded, data) // deliberately no copy
	}
	if len(decoded) != 2*len(reg.Methods()) {
		t.Fatalf("decoded %d blocks, want %d", len(decoded), 2*len(reg.Methods()))
	}
	for i, got := range decoded {
		want := blockA
		if i%2 == 1 {
			want = blockB
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d was clobbered by a later frame's decode", i)
		}
	}
}
