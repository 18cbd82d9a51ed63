// Package codec unifies the four compression methods of the paper behind a
// single interface, assigns them stable wire identifiers, and defines the
// framed block format used by the data-exchange layer.
//
// The method set mirrors §2 of the paper — no compression, Huffman,
// arithmetic, Lempel-Ziv, Burrows-Wheeler — and the registry is open:
// middleware can deploy additional (even lossy, application-specific)
// codecs at runtime, the extension path §5 of the paper calls out.
package codec

import (
	"fmt"
	"sort"
	"sync"

	"ccx/internal/arith"
	"ccx/internal/bwt"
	"ccx/internal/huffman"
	"ccx/internal/lz"
)

// Method identifies a compression method on the wire.
//
// None is deliberately the zero value: an unconfigured exchange transports
// data uncompressed, matching the paper's default of applying no compression
// while bandwidth is plentiful.
type Method uint8

// Wire identifiers. These values appear in frame headers and must not be
// renumbered.
const (
	None Method = iota
	Huffman
	Arithmetic
	LempelZiv
	BurrowsWheeler
	// FirstCustom is the lowest identifier available to runtime-registered
	// codecs.
	FirstCustom Method = 64
)

// String returns the method's human-readable name.
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case Huffman:
		return "huffman"
	case Arithmetic:
		return "arithmetic"
	case LempelZiv:
		return "lempel-ziv"
	case BurrowsWheeler:
		return "burrows-wheeler"
	}
	return fmt.Sprintf("custom(%d)", uint8(m))
}

// CostRank orders methods by CPU cost for the overload-degradation ladder
// (BWT → LZ → Huffman → None): a method is "heavier" than a cap when its
// rank is greater. The built-in wire identifiers happen to ascend in cost
// order; custom codecs rank above everything built in, so a governor cap
// always demotes them.
func CostRank(m Method) int {
	if m <= BurrowsWheeler {
		return int(m)
	}
	return int(BurrowsWheeler) + 1
}

// Codec compresses and decompresses byte blocks. Implementations must be
// safe for concurrent use.
//
// Buffer-ownership contract (load-bearing for the parallel pipeline, which
// recycles frame buffers through a sync.Pool and encodes many blocks
// concurrently):
//
//   - Compress must return a slice that aliases neither src nor any state
//     retained by the codec: the caller owns the returned bytes outright and
//     may mutate them, while src stays the caller's to reuse immediately.
//   - Decompress must likewise return a slice independent of src — the
//     framing layer hands it a scratch buffer that is overwritten by the
//     next frame.
//
// codec's aliasing tests (TestEncodeAliasing/TestDecodeAliasing) enforce
// both rules for every registered method.
type Codec interface {
	// Method returns the codec's wire identifier.
	Method() Method
	// Compress encodes src. It must not retain or mutate src. A nil return
	// with nil error is valid for empty input.
	Compress(src []byte) ([]byte, error)
	// Decompress reverses Compress given the original length. It must not
	// retain src and must detect (not panic on) malformed input.
	Decompress(src []byte, origLen int) ([]byte, error)
}

// funcCodec adapts compress/decompress function pairs.
type funcCodec struct {
	method Method
	comp   func([]byte) ([]byte, error)
	decomp func([]byte, int) ([]byte, error)
}

func (c funcCodec) Method() Method { return c.method }
func (c funcCodec) Compress(src []byte) ([]byte, error) {
	return c.comp(src)
}
func (c funcCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	return c.decomp(src, origLen)
}

// rawCodec is the built-in None method. It is a named type (not a
// funcCodec) so the framing layer can recognize the genuine raw codec and
// skip the copy-through-Compress entirely, appending the block straight
// into the frame buffer — one whole block-size allocation saved per raw
// block, which matters because None is the default on fast links. A custom
// codec registered under the None identifier is a different type and takes
// the general path.
type rawCodec struct{}

func (rawCodec) Method() Method { return None }

func (rawCodec) Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	// The copy keeps the Codec contract: the returned slice must not alias
	// src. The framing layer's fast path avoids this copy.
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// rawLenCheck is the one integrity check a raw payload admits: it must be
// exactly as long as the header says the block was.
func rawLenCheck(n, origLen int) error {
	if n != origLen {
		return fmt.Errorf("codec: raw block length %d != declared %d", n, origLen)
	}
	return nil
}

func (rawCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	if err := rawLenCheck(len(src), origLen); err != nil {
		return nil, err
	}
	// src is the FrameReader's scratch buffer, overwritten by the next
	// frame: the copy is what makes the returned block the caller's own.
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// Registry maps wire identifiers to codecs. The zero value is empty; most
// callers want NewRegistry, which is pre-populated with the paper's methods.
type Registry struct {
	mu     sync.RWMutex
	codecs map[Method]Codec
}

// NewRegistry returns a registry containing the paper's five methods.
func NewRegistry() *Registry {
	r := &Registry{codecs: make(map[Method]Codec, 8)}
	for _, c := range builtin() {
		r.codecs[c.Method()] = c
	}
	return r
}

func builtin() []Codec {
	return []Codec{
		rawCodec{},
		funcCodec{Huffman, huffman.Compress, huffman.Decompress},
		funcCodec{Arithmetic, arith.Compress, arith.Decompress},
		funcCodec{LempelZiv, lz.Compress, lz.Decompress},
		funcCodec{BurrowsWheeler, bwt.Compress, bwt.Decompress},
	}
}

// NewOrder1Arithmetic returns the improved order-1 context-modelling
// arithmetic coder under the given identifier — the §3.2 upgrade path where
// "as improved compression algorithms are developed ... applications take
// advantage of such methods without any associated re-engineering costs".
// Register it (optionally shadowing the built-in Arithmetic id) and both
// ends decode by identifier as usual.
func NewOrder1Arithmetic(id Method) Codec {
	return funcCodec{id, arith.CompressOrder1, arith.DecompressOrder1}
}

// Register adds (or replaces) a codec. Built-in identifiers can be shadowed
// deliberately — the middleware uses this to deploy improved or
// application-specific methods at runtime (§3.2, §5).
func (r *Registry) Register(c Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.codecs[c.Method()] = c
}

// Get returns the codec for m.
func (r *Registry) Get(m Method) (Codec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.codecs[m]
	if !ok {
		return nil, fmt.Errorf("codec: no codec registered for method %v", m)
	}
	return c, nil
}

// Methods returns the registered identifiers in ascending order.
func (r *Registry) Methods() []Method {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Method, 0, len(r.codecs))
	for m := range r.codecs {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// defaultRegistry serves the package-level helpers.
var defaultRegistry = NewRegistry()

// Compress encodes src with the given built-in method.
func Compress(m Method, src []byte) ([]byte, error) {
	c, err := defaultRegistry.Get(m)
	if err != nil {
		return nil, err
	}
	return c.Compress(src)
}

// Decompress decodes src with the given built-in method.
func Decompress(m Method, src []byte, origLen int) ([]byte, error) {
	c, err := defaultRegistry.Get(m)
	if err != nil {
		return nil, err
	}
	return c.Decompress(src, origLen)
}
