// Package codec puts the compression methods behind a single interface,
// assigns them stable wire identifiers, and defines the framed block format
// used by the data-exchange layer.
//
// The identifiers follow §2 of the paper — no compression, Huffman,
// arithmetic, Lempel-Ziv, Burrows-Wheeler — and four of them are built in:
// every method a selection policy picks. Arithmetic keeps its identifier but
// not its code here; the reproduction registers it (NewFuncCodec over
// internal/arith) when a figure compares it. The registry is open the same
// way for everyone: middleware can deploy additional (even lossy,
// application-specific) codecs at runtime, the extension path §5 of the
// paper calls out.
package codec

import (
	"fmt"
	"sort"
	"sync"

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
	// Arithmetic is reserved for arithmetic coding, which is not built in:
	// a peer that wants it registers it on both ends.
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

// NewFuncCodec adapts a compress/decompress function pair to a Codec under
// the given identifier. Both functions must keep the Codec contract.
func NewFuncCodec(id Method, compress func([]byte) ([]byte, error), decompress func([]byte, int) ([]byte, error)) Codec {
	return funcCodec{id, compress, decompress}
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
// callers want NewRegistry, which is pre-populated with the built-in methods.
type Registry struct {
	mu     sync.RWMutex
	codecs map[Method]Codec
}

// NewRegistry returns a registry containing the four built-in methods: None,
// Huffman, Lempel-Ziv and Burrows-Wheeler.
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
		funcCodec{LempelZiv, lz.Compress, lz.Decompress},
		funcCodec{BurrowsWheeler, bwt.Compress, bwt.Decompress},
	}
}

// Register adds (or replaces) a codec. Built-in identifiers can be shadowed
// deliberately — the middleware uses this to deploy improved or
// application-specific methods at runtime (§3.2, §5): "as improved
// compression algorithms are developed ... applications take advantage of
// such methods without any associated re-engineering costs". Both ends
// register the same codec and decode by identifier as usual.
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
