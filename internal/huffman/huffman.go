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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

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

// treeNode is one node of the Huffman tree under construction. Leaves come
// first in the pool, in symbol order; every internal node follows both of
// its children.
type treeNode struct {
	freq        int64
	sym         int32 // -1 for internal nodes
	left, right int32 // an internal node's children, as indices into the pool
	depth       uint8
}

// treeBuilder holds the arrays a code-length construction works in, so a
// caller that builds code books repeatedly can keep them.
type treeBuilder struct {
	nodes []treeNode
	heap  []int32 // node indices, a binary min-heap under less
	work  []int64
}

// less orders nodes by frequency, then by pool index: a strict total order,
// so the merge sequence (and with it every code book) is reproducible.
func (tb *treeBuilder) less(a, b int32) bool {
	if fa, fb := tb.nodes[a].freq, tb.nodes[b].freq; fa != fb {
		return fa < fb
	}
	return a < b
}

func (tb *treeBuilder) siftDown(i int) {
	h := tb.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && tb.less(h[c+1], h[c]) {
			c++
		}
		if !tb.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// BuildLengths computes canonical code lengths for the given symbol
// frequencies. Symbols with zero frequency receive length 0 (no code). The
// resulting maximum depth never exceeds MaxCodeLen: if the optimal tree is
// deeper, frequencies are repeatedly halved (rounding up) and the tree
// rebuilt, trading a negligible amount of compression for bounded codes.
func BuildLengths(freqs []int64) ([]uint8, error) {
	lengths := make([]uint8, len(freqs))
	tb := treeBuilder{nodes: make([]treeNode, 0, 2*len(freqs)), heap: make([]int32, 0, len(freqs))}
	if err := tb.buildLengths(lengths, freqs); err != nil {
		return nil, err
	}
	return lengths, nil
}

// buildLengths is BuildLengths into a caller-supplied table of len(freqs).
func (tb *treeBuilder) buildLengths(lengths []uint8, freqs []int64) error {
	clear(lengths)
	live := 0
	last := -1
	for i, f := range freqs {
		if f < 0 {
			return fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			live++
			last = i
		}
	}
	if live == 0 {
		return ErrEmptyAlphabet
	}
	if live == 1 {
		// A single-symbol alphabet still needs one bit per symbol so the
		// decoder can count symbols.
		lengths[last] = 1
		return nil
	}

	tb.work = append(tb.work[:0], freqs...)
	for {
		if tb.buildTreeDepths(lengths, tb.work) <= MaxCodeLen {
			return nil
		}
		for i := range tb.work {
			if tb.work[i] > 0 {
				tb.work[i] = tb.work[i]/2 + 1
			}
		}
	}
}

// buildTreeDepths runs the classic heap Huffman construction, writes the
// leaf depth of every symbol with a nonzero frequency into depths and
// returns the greatest.
func (tb *treeBuilder) buildTreeDepths(depths []uint8, freqs []int64) uint8 {
	tb.nodes, tb.heap = tb.nodes[:0], tb.heap[:0]
	for i, f := range freqs {
		if f > 0 {
			tb.heap = append(tb.heap, int32(len(tb.nodes)))
			tb.nodes = append(tb.nodes, treeNode{freq: f, sym: int32(i)})
		}
	}
	for i := len(tb.heap)/2 - 1; i >= 0; i-- {
		tb.siftDown(i)
	}
	for len(tb.heap) > 1 {
		a, last := tb.heap[0], len(tb.heap)-1
		tb.heap[0], tb.heap = tb.heap[last], tb.heap[:last]
		tb.siftDown(0)
		b := tb.heap[0]
		tb.nodes = append(tb.nodes, treeNode{
			freq: tb.nodes[a].freq + tb.nodes[b].freq,
			sym:  -1, left: a, right: b,
		})
		// The merged node takes the second child's place at the top.
		tb.heap[0] = int32(len(tb.nodes) - 1)
		tb.siftDown(0)
	}
	// Parents follow their children in the pool, so one backward sweep from
	// the root (the last node, depth 0 like every new node) hands each its
	// depth.
	maxDepth := uint8(0)
	for i := len(tb.nodes) - 1; i >= 0; i-- {
		nd := tb.nodes[i]
		if nd.sym >= 0 {
			depths[nd.sym] = nd.depth
			maxDepth = max(maxDepth, nd.depth)
			continue
		}
		tb.nodes[nd.left].depth = nd.depth + 1
		tb.nodes[nd.right].depth = nd.depth + 1
	}
	return maxDepth
}

// countLengths validates a code-length table — every length within
// MaxCodeLen, at least one code, Kraft-McMillan sum at most 1 — and returns
// how many codes have each length and the greatest length.
func countLengths(lengths []uint8) (lenCount [MaxCodeLen + 1]int, maxLen uint8, err error) {
	for _, l := range lengths {
		if l > MaxCodeLen {
			return lenCount, 0, ErrInvalidLengths
		}
		if l > 0 {
			lenCount[l]++
			maxLen = max(maxLen, l)
		}
	}
	if maxLen == 0 {
		return lenCount, 0, ErrInvalidLengths
	}
	var kraft uint64
	for l := uint8(1); l <= maxLen; l++ {
		kraft += uint64(lenCount[l]) << (maxLen - l)
	}
	if kraft > uint64(1)<<maxLen {
		return lenCount, 0, ErrInvalidLengths
	}
	return lenCount, maxLen, nil
}

// firstCodes returns the first canonical codeword of each length: codes are
// assigned in (length, symbol) order.
func firstCodes(lenCount *[MaxCodeLen + 1]int, maxLen uint8) (first [MaxCodeLen + 1]uint64) {
	code := uint64(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + uint64(lenCount[l-1])) << 1
		first[l] = code
	}
	return first
}

// assignCodes fills codes (one entry per symbol) with the canonical
// codewords for the given lengths.
func assignCodes(codes []Code, lengths []uint8) error {
	lenCount, maxLen, err := countLengths(lengths)
	if err != nil {
		return err
	}
	next := firstCodes(&lenCount, maxLen)
	for sym, l := range lengths {
		codes[sym] = Code{}
		if l != 0 {
			codes[sym] = Code{Bits: next[l], Len: l}
			next[l]++
		}
	}
	return nil
}

// Encoder encodes symbols with a canonical code book.
type Encoder struct {
	codes []Code
}

// NewEncoder builds an encoder from code lengths.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	codes := make([]Code, len(lengths))
	if err := assignCodes(codes, lengths); err != nil {
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

// encodeBytes writes the code of every byte of src. codes must hold a code
// for each byte value that occurs, as a book built from src's own histogram
// does, which is what lets the loop skip Encode's per-symbol checks. Codes
// collect in a local word and reach the writer a word at a time.
func encodeBytes(w *bitio.Writer, codes *[256]Code, src []byte) {
	var acc uint64
	var n uint
	for _, b := range src {
		c := codes[b]
		if n+uint(c.Len) > 64 {
			_ = w.WriteBits(acc, n) // n <= 64
			acc, n = 0, 0
		}
		acc = acc<<c.Len | c.Bits
		n += uint(c.Len)
	}
	_ = w.WriteBits(acc, n)
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
	d := &Decoder{}
	if err := d.init(lengths); err != nil {
		return nil, err
	}
	return d, nil
}

// init (re)builds d for a code-length table, keeping the arrays it has.
func (d *Decoder) init(lengths []uint8) error {
	var err error
	if d.lenCount, d.maxLen, err = countLengths(lengths); err != nil {
		return err
	}
	d.firstCode = firstCodes(&d.lenCount, d.maxLen)
	coded := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		d.firstSym[l] = coded
		coded += d.lenCount[l]
	}
	d.syms = slices.Grow(d.syms[:0], coded)[:coded]
	if d.fast == nil {
		d.fast = make([]uint32, 1<<tableBits)
	}
	clear(d.fast)
	// Symbols in ascending order land in (length, symbol) order within each
	// length's run of syms; a symbol's code is its length's first code plus
	// its place in that run.
	var placed [MaxCodeLen + 1]int
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		d.syms[d.firstSym[l]+placed[l]] = sym
		code := d.firstCode[l] + uint64(placed[l])
		placed[l]++
		if l > tableBits {
			continue
		}
		entry := uint32(sym)<<6 | uint32(l)
		shift := tableBits - uint(l)
		base := code << shift
		for fill := uint64(0); fill < 1<<shift; fill++ {
			d.fast[base|fill] = entry
		}
	}
	return nil
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
	window, avail := r.PeekBits(MaxCodeLen)
	sym, l := d.longCode(window << (64 - MaxCodeLen))
	switch {
	case sym < 0 && avail >= uint(d.maxLen):
		return 0, ErrInvalidLengths
	case sym < 0 || l > avail: // the input ended inside a code
		return 0, io.ErrUnexpectedEOF
	}
	return sym, r.SkipBits(l)
}

// longCode resolves the code at the top of window when it is longer than
// the fast table covers, by the canonical walk: a code of length l is its
// length's first code plus its symbol's place among that length's symbols.
// It returns -1 when no code matches.
func (d *Decoder) longCode(window uint64) (sym int, l uint) {
	for l = tableBits + 1; l <= uint(d.maxLen); l++ {
		code := window >> (64 - l)
		if off := code - d.firstCode[l]; code >= d.firstCode[l] && off < uint64(d.lenCount[l]) {
			return d.syms[d.firstSym[l]+int(off)], l
		}
	}
	return -1, 0
}

// decodeBytes decodes len(dst) symbols of a byte alphabet from src, starting
// bitPos bits in. It keeps up to 64 bits of input in a left-aligned window
// that is topped up whenever fewer than MaxCodeLen remain — about once every
// five symbols — and looks codes up in it directly; past the end of src the
// window fills with zeros, and a decode that needed any of them fails.
func (d *Decoder) decodeBytes(dst, src []byte, bitPos int) error {
	pos := bitPos >> 3
	var window uint64
	var have uint // bits in window, counting zeros past the end of src
	if skip := uint(bitPos & 7); skip != 0 && pos < len(src) {
		window = uint64(src[pos]) << (56 + skip)
		have = 8 - skip
		pos++
	}
	used := bitPos
	for i := range dst {
		if have < MaxCodeLen {
			if pos+8 <= len(src) {
				window |= binary.BigEndian.Uint64(src[pos:]) >> have
				pos += int(63-have) >> 3
				have |= 56
			} else {
				for ; have <= 56; have += 8 {
					if pos < len(src) {
						window |= uint64(src[pos]) << (56 - have)
					}
					pos++
				}
			}
		}
		entry := d.fast[window>>(64-tableBits)]
		l := uint(entry & 0x3F)
		sym := int(entry >> 6)
		if l == 0 {
			if sym, l = d.longCode(window); sym < 0 {
				return ErrInvalidLengths
			}
		}
		dst[i] = byte(sym)
		window <<= l
		have -= l
		used += int(l)
	}
	if used > len(src)*8 {
		return io.ErrUnexpectedEOF
	}
	return nil
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
	if err := readLengths(r, lengths); err != nil {
		return nil, err
	}
	return lengths, nil
}

// readLengths is ReadLengths into a caller-supplied table.
func readLengths(r *bitio.Reader, lengths []uint8) error {
	clear(lengths)
	for i := 0; i < len(lengths); {
		v, err := r.ReadBits(6)
		if err != nil {
			return err
		}
		if v != 0 {
			lengths[i] = uint8(v)
			i++
			continue
		}
		run, err := r.ReadBits(8)
		if err != nil {
			return err
		}
		i += int(run) + 1
	}
	return nil
}

// byteCoder is everything the byte-alphabet codec (Compress, Decompress)
// works in besides its input and output: histogram, code book, tree arrays,
// decode tables and the bit buffer. Values are recycled through coderPool,
// and the first call allocates the first one.
type byteCoder struct {
	freq    [256]int64
	lengths [256]uint8
	codes   [256]Code
	tree    treeBuilder
	dec     Decoder
	w       bitio.Writer
}

var coderPool = sync.Pool{New: func() any { return new(byteCoder) }}

// Compress encodes src with an order-0 byte Huffman code. The output layout
// is: code-length table, then the coded symbols. The caller must remember
// len(src) to decompress (the codec framing layer stores it).
func Compress(src []byte) ([]byte, error) {
	return AppendCompress(nil, src)
}

// AppendCompress appends Compress(src) to dst. The bits are packed in a
// recycled buffer and copied out once, so when dst has no spare capacity the
// result is the call's only allocation and is exactly as long as it needs
// to be.
func AppendCompress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	c := coderPool.Get().(*byteCoder)
	defer coderPool.Put(c)
	c.freq = [256]int64{}
	for _, b := range src {
		c.freq[b]++
	}
	if err := c.tree.buildLengths(c.lengths[:], c.freq[:]); err != nil {
		return nil, err
	}
	if err := assignCodes(c.codes[:], c.lengths[:]); err != nil {
		return nil, err
	}
	c.w.Reset()
	if err := WriteLengths(&c.w, c.lengths[:]); err != nil {
		return nil, err
	}
	encodeBytes(&c.w, &c.codes, src)
	return append(dst, c.w.Bytes()...), nil
}

// Decompress reverses Compress, producing exactly origLen bytes.
func Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	// Every code is at least one bit long, so src bounds what it can hold:
	// refuse before origLen, a number off the wire, sizes anything.
	if origLen > 8*len(src) {
		return nil, fmt.Errorf("huffman: %d symbols in %d bytes: %w", origLen, len(src), io.ErrUnexpectedEOF)
	}
	dst := make([]byte, origLen)
	if err := DecompressInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecompressInto reverses Compress into dst, whose length says how many
// bytes src encodes.
func DecompressInto(dst, src []byte) error {
	if len(dst) == 0 {
		return nil
	}
	c := coderPool.Get().(*byteCoder)
	defer coderPool.Put(c)
	r := bitio.NewReader(src)
	if err := readLengths(r, c.lengths[:]); err != nil {
		return err
	}
	if err := c.dec.init(c.lengths[:]); err != nil {
		return err
	}
	return c.dec.decodeBytes(dst, src, len(src)*8-r.BitsRemaining())
}
