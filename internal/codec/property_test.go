package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// propertyBlockSize matches selector.DefaultBlockSize (not imported to keep
// the codec package's test free of upward dependencies).
const propertyBlockSize = 64 << 10

// propertyShapes are the input families that drive each codec down a
// different internal path: degenerate single-symbol input, incompressible
// noise, run-length-friendly data, and skewed-alphabet text.
func propertyShapes(size int) map[string][]byte {
	shapes := map[string][]byte{}

	zeros := make([]byte, size)
	shapes["all-zero"] = zeros

	noise := make([]byte, size)
	rand.New(rand.NewSource(int64(size) + 1)).Read(noise)
	shapes["random"] = noise

	runs := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(size) + 2))
	for i := 0; i < size; {
		b := byte(rng.Intn(8))
		n := 1 + rng.Intn(512)
		for j := 0; j < n && i < size; j++ {
			runs[i] = b
			i++
		}
	}
	shapes["long-runs"] = runs

	text := make([]byte, size)
	const alphabet = "the quick brown fox jumps over the lazy dog 0123456789\n"
	rng = rand.New(rand.NewSource(int64(size) + 3))
	for i := range text {
		// Zipf-ish skew: low indexes dominate, as in real text.
		k := rng.Intn(len(alphabet) * 3)
		if k >= len(alphabet) {
			k %= 8
		}
		text[i] = alphabet[k]
	}
	shapes["text"] = text

	return shapes
}

// TestRoundTripProperty is the cross-codec property test: every registered
// method must round-trip byte-identically across the block-size boundary
// cases (empty, single byte, blockSize±1, blockSize, 4x blockSize) for
// every input shape, and — for full-size blocks — decode within a bounded
// allocation budget, since the receive path runs a decode per frame at
// line rate.
func TestRoundTripProperty(t *testing.T) {
	bs := propertyBlockSize
	if testing.Short() {
		bs = 4 << 10
	}
	sizes := []int{0, 1, bs - 1, bs, bs + 1, 4 * bs}
	reg := WithArithmetic()

	for _, m := range reg.Methods() {
		c, err := reg.Get(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			for shape, src := range propertyShapes(size) {
				name := fmt.Sprintf("%v/size=%d/%s", m, size, shape)
				t.Run(name, func(t *testing.T) {
					comp, err := c.Compress(src)
					if err != nil {
						t.Fatalf("compress: %v", err)
					}
					got, err := c.Decompress(comp, len(src))
					if err != nil {
						t.Fatalf("decompress: %v", err)
					}
					if !bytes.Equal(got, src) {
						t.Fatalf("round trip lost data: %d in, %d compressed, %d out",
							len(src), len(comp), len(got))
					}
					if size >= bs {
						checkDecodeAllocs(t, c, comp, len(src))
					}
				})
			}
		}
	}
}

// checkDecodeAllocs bounds a single decode's heap traffic. The budget is
// deliberately loose — it exists to catch pathological per-symbol
// allocation (an accidental append-per-byte or per-node box), not to pin
// exact numbers: anything beyond ~48 bytes of allocation per output byte
// plus a fixed 1 MiB of table/scratch overhead indicates a regression.
func checkDecodeAllocs(t *testing.T, c Codec, comp []byte, origLen int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := c.Decompress(comp, origLen)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(out)
	spent := after.TotalAlloc - before.TotalAlloc
	budget := uint64(48*origLen + 1<<20)
	if spent > budget {
		t.Fatalf("decode of %d->%d bytes allocated %d bytes, budget %d",
			len(comp), origLen, spent, budget)
	}
}

// TestRoundTripThroughFrames pushes the same boundary sizes through the
// framing layer (AppendFrame -> FrameReader), where fallback-to-raw and
// scratch-buffer reuse live, for each method.
func TestRoundTripThroughFrames(t *testing.T) {
	bs := propertyBlockSize
	if testing.Short() {
		bs = 4 << 10
	}
	reg := WithArithmetic()
	for _, m := range reg.Methods() {
		t.Run(m.String(), func(t *testing.T) {
			var wire []byte
			var blocks [][]byte
			for _, size := range []int{0, 1, bs - 1, bs, bs + 1} {
				src := propertyShapes(size)["text"]
				blocks = append(blocks, src)
				var err error
				wire, _, err = AppendFrameOpts(wire, reg, m, src, FrameOpts{})
				if err != nil {
					t.Fatal(err)
				}
			}
			fr := NewFrameReader(bytes.NewReader(wire), reg)
			for i, want := range blocks {
				got, info, err := fr.ReadBlock()
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d: decoded %d bytes != original %d", i, len(got), len(want))
				}
				if info.OrigLen != len(want) {
					t.Fatalf("block %d: OrigLen %d, want %d", i, info.OrigLen, len(want))
				}
			}
		})
	}
}
