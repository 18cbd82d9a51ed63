// Package huffman implements canonical Huffman coding over arbitrary
// alphabets (§2.1 of the paper). It is used three ways in this repository:
// as the standalone "Huffman" compression method the selector can pick, as
// the entropy coder for Lempel-Ziv back-pointers (§2.3, ref [27]), and as the
// joint final stage of the chunked Burrows-Wheeler pipeline (§2.4).
//
// Canonical codes are assigned in (length, symbol) order, which lets the
// decoder reconstruct the full code book from code lengths alone and gives
// the self-synchronization behaviour the paper relies on for decoding BWT
// chunk streams from arbitrary points (ref [31]).
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"ccx/internal/bitio"
)

// MaxCodeLen is the longest code length this implementation emits. Frequency
// scaling keeps trees within this depth, so codes always fit the bitio fast
// path.
const MaxCodeLen = 32

var (
	// ErrEmptyAlphabet is returned when no symbol has a nonzero frequency.
	ErrEmptyAlphabet = errors.New("huffman: no symbols with nonzero frequency")
	// ErrInvalidLengths is returned when a length table does not describe a
	// prefix code (oversubscribed or malformed Kraft sum).
	ErrInvalidLengths = errors.New("huffman: invalid code length table")
	// ErrUnknownSymbol is returned when encoding a symbol with no code.
	ErrUnknownSymbol = errors.New("huffman: symbol has no code")
)

// Code is one canonical codeword.
type Code struct {
	Bits uint64
	Len  uint8
}

type treeNode struct {
	freq        int64
	sym         int // -1 for internal nodes
	left, right int // indices into node pool, -1 for leaves
}

type nodeHeap struct {
	nodes []treeNode
	order []int
}

func (h *nodeHeap) Len() int { return len(h.order) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[h.order[i]], h.nodes[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	// Deterministic tie-break keeps code books reproducible across runs.
	return h.order[i] < h.order[j]
}
func (h *nodeHeap) Swap(i, j int)      { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *nodeHeap) Push(x interface{}) { h.order = append(h.order, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.order
	n := len(old)
	x := old[n-1]
	h.order = old[:n-1]
	return x
}

// BuildLengths computes canonical code lengths for the given symbol
// frequencies. Symbols with zero frequency receive length 0 (no code). The
// resulting maximum depth never exceeds MaxCodeLen: if the optimal tree is
// deeper, frequencies are repeatedly halved (rounding up) and the tree
// rebuilt, trading a negligible amount of compression for bounded codes.
func BuildLengths(freqs []int64) ([]uint8, error) {
	n := len(freqs)
	lengths := make([]uint8, n)
	live := 0
	last := -1
	for i, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			live++
			last = i
		}
	}
	if live == 0 {
		return nil, ErrEmptyAlphabet
	}
	if live == 1 {
		// A single-symbol alphabet still needs one bit per symbol so the
		// decoder can count symbols.
		lengths[last] = 1
		return lengths, nil
	}

	work := make([]int64, n)
	copy(work, freqs)
	for {
		depths := buildTreeDepths(work)
		maxDepth := uint8(0)
		for i, d := range depths {
			lengths[i] = d
			if d > maxDepth {
				maxDepth = d
			}
		}
		if maxDepth <= MaxCodeLen {
			return lengths, nil
		}
		for i := range work {
			if work[i] > 0 {
				work[i] = work[i]/2 + 1
			}
		}
	}
}

// buildTreeDepths runs the classic two-queue/heap Huffman construction and
// returns the leaf depth per symbol.
func buildTreeDepths(freqs []int64) []uint8 {
	n := len(freqs)
	nodes := make([]treeNode, 0, 2*n)
	h := &nodeHeap{nodes: nil}
	for i, f := range freqs {
		if f > 0 {
			nodes = append(nodes, treeNode{freq: f, sym: i, left: -1, right: -1})
		}
	}
	h.nodes = nodes
	h.order = make([]int, len(nodes))
	for i := range h.order {
		h.order[i] = i
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.nodes = append(h.nodes, treeNode{
			freq: h.nodes[a].freq + h.nodes[b].freq,
			sym:  -1, left: a, right: b,
		})
		heap.Push(h, len(h.nodes)-1)
	}
	root := h.order[0]
	depths := make([]uint8, n)
	// Iterative DFS with explicit stack; recursion depth could otherwise be
	// large for skewed trees.
	type frame struct {
		node  int
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.nodes[f.node]
		if nd.sym >= 0 {
			depths[nd.sym] = f.depth
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return depths
}

// canonicalCodes assigns canonical codewords for the given lengths.
func canonicalCodes(lengths []uint8) ([]Code, error) {
	var lenCount [MaxCodeLen + 1]int
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > MaxCodeLen {
			return nil, ErrInvalidLengths
		}
		if l > 0 {
			lenCount[l]++
			if l > maxLen {
				maxLen = l
			}
		}
	}
	if maxLen == 0 {
		return nil, ErrInvalidLengths
	}
	// Kraft-McMillan check: sum 2^-l must not exceed 1.
	var kraft uint64
	unit := uint64(1) << maxLen
	for l := uint8(1); l <= maxLen; l++ {
		kraft += uint64(lenCount[l]) << (maxLen - l)
	}
	if kraft > unit {
		return nil, ErrInvalidLengths
	}
	var nextCode [MaxCodeLen + 2]uint64
	code := uint64(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + uint64(lenCount[l-1])) << 1
		nextCode[l] = code
	}
	codes := make([]Code, len(lengths))
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = Code{Bits: nextCode[l], Len: l}
		nextCode[l]++
	}
	return codes, nil
}

// Encoder encodes symbols with a canonical code book.
type Encoder struct {
	codes []Code
}

// NewEncoder builds an encoder from code lengths.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	codes, err := canonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	return &Encoder{codes: codes}, nil
}

// Encode writes the code for sym.
func (e *Encoder) Encode(w *bitio.Writer, sym int) error {
	if sym < 0 || sym >= len(e.codes) || e.codes[sym].Len == 0 {
		return fmt.Errorf("%w: %d", ErrUnknownSymbol, sym)
	}
	c := e.codes[sym]
	return w.WriteBits(c.Bits, uint(c.Len))
}

// tableBits sizes the one-level fast decode table: codes up to this long
// resolve with a single peek, longer ones fall back to the canonical walk.
const tableBits = 10

// Decoder decodes canonical Huffman codes. Short codes (≤ tableBits) hit a
// one-level lookup table; longer codes fall back to walking the per-length
// first-code table, which is O(code length) per symbol. Both paths are
// allocation-free.
type Decoder struct {
	maxLen    uint8
	firstCode [MaxCodeLen + 1]uint64 // first canonical code of each length
	firstSym  [MaxCodeLen + 1]int    // index into syms of that code
	lenCount  [MaxCodeLen + 1]int
	syms      []int // symbols sorted by (length, symbol)
	// fast maps a tableBits-bit prefix to sym<<6 | codeLen; codeLen 0 marks
	// prefixes of longer codes (slow path).
	fast []uint32
}

// NewDecoder builds a decoder from code lengths.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	codes, err := canonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	d := &Decoder{}
	type ls struct {
		sym int
		l   uint8
	}
	pairs := make([]ls, 0, len(lengths))
	for sym, l := range lengths {
		if l > 0 {
			pairs = append(pairs, ls{sym, l})
			d.lenCount[l]++
			if l > d.maxLen {
				d.maxLen = l
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].l != pairs[j].l {
			return pairs[i].l < pairs[j].l
		}
		return pairs[i].sym < pairs[j].sym
	})
	d.syms = make([]int, len(pairs))
	for i, p := range pairs {
		d.syms[i] = p.sym
	}
	idx := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		if d.lenCount[l] > 0 {
			first := pairs[idx].sym
			d.firstCode[l] = codes[first].Bits
			d.firstSym[l] = idx
			idx += d.lenCount[l]
		}
	}
	d.buildFastTable(codes)
	return d, nil
}

// buildFastTable fills the one-level lookup for codes of length ≤ tableBits.
func (d *Decoder) buildFastTable(codes []Code) {
	d.fast = make([]uint32, 1<<tableBits)
	for sym, c := range codes {
		if c.Len == 0 || c.Len > tableBits {
			continue
		}
		entry := uint32(sym)<<6 | uint32(c.Len)
		shift := tableBits - uint(c.Len)
		base := c.Bits << shift
		for fill := uint64(0); fill < 1<<shift; fill++ {
			d.fast[base|fill] = entry
		}
	}
}

// Decode reads one symbol.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	// Fast path: resolve short codes with one table lookup. Valid even near
	// the end of input as long as the code itself fits in the available
	// bits (the peek zero-pads, which cannot turn a complete short code
	// into a different one because the table is indexed by prefix).
	if prefix, avail := r.PeekBits(tableBits); avail > 0 {
		entry := d.fast[prefix]
		if l := entry & 0x3F; l != 0 && uint(l) <= avail {
			if err := r.SkipBits(uint(l)); err != nil {
				return 0, err
			}
			return int(entry >> 6), nil
		}
	}
	var code uint64
	for l := uint8(1); l <= d.maxLen; l++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(bit)
		if l <= tableBits {
			continue // short codes were handled by the fast path
		}
		if cnt := d.lenCount[l]; cnt > 0 {
			off := code - d.firstCode[l]
			if code >= d.firstCode[l] && off < uint64(cnt) {
				return d.syms[d.firstSym[l]+int(off)], nil
			}
		}
	}
	return 0, ErrInvalidLengths
}

// WriteLengths serializes a code-length table compactly: each entry is 6
// bits; a zero entry is followed by an 8-bit extra giving how many additional
// zeros follow (run-length coding of the common all-zero gaps).
func WriteLengths(w *bitio.Writer, lengths []uint8) error {
	for i := 0; i < len(lengths); {
		l := lengths[i]
		if err := w.WriteBits(uint64(l), 6); err != nil {
			return err
		}
		if l != 0 {
			i++
			continue
		}
		run := 0
		for i+run+1 < len(lengths) && lengths[i+run+1] == 0 && run < 255 {
			run++
		}
		if err := w.WriteBits(uint64(run), 8); err != nil {
			return err
		}
		i += run + 1
	}
	return nil
}

// ReadLengths reads a table of n code lengths written by WriteLengths.
func ReadLengths(r *bitio.Reader, n int) ([]uint8, error) {
	lengths := make([]uint8, n)
	for i := 0; i < n; {
		v, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		if v != 0 {
			lengths[i] = uint8(v)
			i++
			continue
		}
		run, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		i += int(run) + 1
	}
	return lengths, nil
}

// Histogram counts byte frequencies in src into a 256-entry table.
func Histogram(src []byte) []int64 {
	freqs := make([]int64, 256)
	for _, b := range src {
		freqs[b]++
	}
	return freqs
}

// Compress encodes src with an order-0 byte Huffman code. The output layout
// is: code-length table, then the coded symbols. The caller must remember
// len(src) to decompress (the codec framing layer stores it).
func Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	lengths, err := BuildLengths(Histogram(src))
	if err != nil {
		return nil, err
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(src)/2 + 64)
	if err := WriteLengths(w, lengths); err != nil {
		return nil, err
	}
	for _, b := range src {
		if err := enc.Encode(w, int(b)); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// Decompress reverses Compress, producing exactly origLen bytes.
func Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	r := bitio.NewReader(src)
	lengths, err := ReadLengths(r, 256)
	if err != nil {
		return nil, err
	}
	dec, err := NewDecoder(lengths)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, origLen)
	for i := range dst {
		sym, err := dec.Decode(r)
		if err != nil {
			return nil, err
		}
		dst[i] = byte(sym)
	}
	return dst, nil
}
