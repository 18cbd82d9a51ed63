// Package lz implements the paper's Lempel-Ziv method (§2.3): LZ77 sliding
// window matching whose back-pointers (distance, length) are entropy-coded
// with Huffman codes, following the observation of ref [27] that pointer
// components are small and skewed, so Huffman codes shorten them further.
//
// The on-disk layout of a compressed block is:
//
//	litlen code-length table (286 symbols) |
//	distance code-length table (30 symbols) |
//	token stream
//
// Tokens use a deflate-style symbol space — literals 0..255, match lengths
// 256..284 with extra bits, distance codes 0..29 with extra bits — but the
// bit stream is this package's own; it is not zlib-compatible.
package lz

import (
	"errors"
	"fmt"
	"runtime"

	"ccx/internal/bitio"
	"ccx/internal/huffman"
)

var (
	// ErrCorrupt is returned for malformed or truncated compressed data.
	ErrCorrupt = errors.New("lz: corrupt input")
)

const (
	minMatch   = 3
	maxMatch   = 258
	windowSize = 32 * 1024 // distances are < windowSize

	numLitLenSyms = 256 + 29 // literals + length buckets
	numDistSyms   = 30

	hashBits  = 15
	hashSize  = 1 << hashBits
	hashShift = 32 - hashBits
	// maxChainLen bounds match-search effort; the paper positions LZ as the
	// mid-speed method, so we favour speed over the last percent of ratio.
	maxChainLen = 64
	// niceLen stops the chain walk early once a match this good is found.
	niceLen = 128
	// yieldEvery is how much input Compress parses between yields of its
	// processor, so that a block's encode delays nobody by more than this.
	yieldEvery = 16 * 1024
)

// Deflate-compatible length and distance bucket tables.
var (
	lengthBase = [29]int{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51,
		59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lengthExtra = [29]uint{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
		4, 5, 5, 5, 5, 0,
	}
	distBase = [30]int{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
		513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
	}
	distExtra = [30]uint{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
		10, 11, 11, 12, 12, 13, 13,
	}
)

// lengthSym maps a match length (3..258) to its bucket symbol offset (0..28).
func lengthSym(length int) int {
	for i := len(lengthBase) - 1; i >= 0; i-- {
		if length >= lengthBase[i] {
			return i
		}
	}
	return 0
}

// distSym maps a distance (1..32768) to its bucket symbol (0..29).
func distSym(dist int) int {
	for i := len(distBase) - 1; i >= 0; i-- {
		if dist >= distBase[i] {
			return i
		}
	}
	return 0
}

// token is one literal or match emitted by the tokenizer.
type token struct {
	length int // 0 for literal
	dist   int
	lit    byte
}

func hash4(src []byte, i int) uint32 {
	v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
	return (v * 506832829) >> hashShift
}

// tokenize performs greedy LZ77 parsing with one-step lazy matching.
func tokenize(src []byte) []token {
	tokens := make([]token, 0, len(src)/3+16)
	head := make([]int32, hashSize)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(src))

	insert := func(i int) {
		h := hash4(src, i)
		prev[i] = head[h]
		head[h] = int32(i)
	}

	findMatch := func(pos int) (length, dist int) {
		if pos+minMatch > len(src) {
			return 0, 0
		}
		limit := pos - windowSize
		if limit < 0 {
			limit = -1
		}
		maxLen := len(src) - pos
		if maxLen > maxMatch {
			maxLen = maxMatch
		}
		cand := head[hash4(src, pos)]
		best, bestDist := 0, 0
		for chain := 0; cand > int32(limit) && cand >= 0 && chain < maxChainLen; chain++ {
			c := int(cand)
			if c != pos && src[c+best/2] == src[pos+best/2] { // cheap prefilter
				l := matchLen(src, c, pos, maxLen)
				if l > best {
					best, bestDist = l, pos-c
					if l >= niceLen {
						break
					}
				}
			}
			cand = prev[c]
		}
		if best < minMatch {
			return 0, 0
		}
		return best, bestDist
	}

	// yield gives the processor up once per yieldEvery bytes parsed. Less
	// input than that — the selector's timed probe — never yields.
	nextYield := yieldEvery
	yield := func(i int) {
		if i >= nextYield {
			runtime.Gosched()
			nextYield += yieldEvery
		}
	}
	for i := 0; i < len(src); yield(i) {
		if i+minMatch > len(src) {
			tokens = append(tokens, token{lit: src[i]})
			i++
			continue
		}
		length, dist := findMatch(i)
		if length >= minMatch && i+1+minMatch <= len(src) {
			// Lazy matching: prefer a strictly longer match at i+1.
			insert(i)
			l2, d2 := findMatch(i + 1)
			if l2 > length {
				tokens = append(tokens, token{lit: src[i]})
				i++
				length, dist = l2, d2
			}
		} else if length >= minMatch {
			insert(i)
		}
		if length < minMatch {
			tokens = append(tokens, token{lit: src[i]})
			insert(i)
			i++
			continue
		}
		tokens = append(tokens, token{length: length, dist: dist})
		// Insert hash entries across the match so later data can point here.
		end := i + length
		for j := i + 1; j < end && j+minMatch <= len(src); j++ {
			insert(j)
		}
		i = end
	}
	return tokens
}

func matchLen(src []byte, a, b, max int) int {
	n := 0
	for n < max && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// Compress encodes src. The caller must retain len(src) for Decompress.
func Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	tokens := tokenize(src)

	litLenFreq := make([]int64, numLitLenSyms)
	distFreq := make([]int64, numDistSyms)
	for _, t := range tokens {
		if t.length == 0 {
			litLenFreq[t.lit]++
		} else {
			litLenFreq[256+lengthSym(t.length)]++
			distFreq[distSym(t.dist)]++
		}
	}
	litLenLens, err := huffman.BuildLengths(litLenFreq)
	if err != nil {
		return nil, fmt.Errorf("lz: litlen table: %w", err)
	}
	litLenEnc, err := huffman.NewEncoder(litLenLens)
	if err != nil {
		return nil, err
	}
	var distLens []uint8
	var distEnc *huffman.Encoder
	hasDist := false
	for _, f := range distFreq {
		if f > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		distLens, err = huffman.BuildLengths(distFreq)
		if err != nil {
			return nil, err
		}
		distEnc, err = huffman.NewEncoder(distLens)
		if err != nil {
			return nil, err
		}
	} else {
		distLens = make([]uint8, numDistSyms)
	}

	w := bitio.NewWriter(len(src)/2 + 128)
	if err := huffman.WriteLengths(w, litLenLens); err != nil {
		return nil, err
	}
	if err := huffman.WriteLengths(w, distLens); err != nil {
		return nil, err
	}
	for _, t := range tokens {
		if t.length == 0 {
			if err := litLenEnc.Encode(w, int(t.lit)); err != nil {
				return nil, err
			}
			continue
		}
		ls := lengthSym(t.length)
		if err := litLenEnc.Encode(w, 256+ls); err != nil {
			return nil, err
		}
		if eb := lengthExtra[ls]; eb > 0 {
			if err := w.WriteBits(uint64(t.length-lengthBase[ls]), eb); err != nil {
				return nil, err
			}
		}
		ds := distSym(t.dist)
		if err := distEnc.Encode(w, ds); err != nil {
			return nil, err
		}
		if eb := distExtra[ds]; eb > 0 {
			if err := w.WriteBits(uint64(t.dist-distBase[ds]), eb); err != nil {
				return nil, err
			}
		}
	}
	return w.Bytes(), nil
}

// Decompress reverses Compress, producing exactly origLen bytes.
func Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	// A match is at most maxMatch bytes for at least two bits of src (one
	// per code), so the claim is checked before anything is sized by it.
	if uint64(origLen) > maxMatch*4*uint64(len(src)) {
		return nil, fmt.Errorf("%w: %d bytes cannot expand to %d", ErrCorrupt, len(src), origLen)
	}
	r := bitio.NewReader(src)
	litLenLens, err := huffman.ReadLengths(r, numLitLenSyms)
	if err != nil {
		return nil, err
	}
	distLens, err := huffman.ReadLengths(r, numDistSyms)
	if err != nil {
		return nil, err
	}
	litLenDec, err := huffman.NewDecoder(litLenLens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var distDec *huffman.Decoder
	for _, l := range distLens {
		if l > 0 {
			distDec, err = huffman.NewDecoder(distLens)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			break
		}
	}
	dst := make([]byte, 0, origLen)
	for len(dst) < origLen {
		sym, err := litLenDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if sym < 256 {
			dst = append(dst, byte(sym))
			continue
		}
		ls := sym - 256
		if ls >= len(lengthBase) {
			return nil, ErrCorrupt
		}
		length := lengthBase[ls]
		if eb := lengthExtra[ls]; eb > 0 {
			extra, err := r.ReadBits(eb)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			length += int(extra)
		}
		if distDec == nil {
			return nil, ErrCorrupt
		}
		ds, err := distDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if ds >= len(distBase) {
			return nil, ErrCorrupt
		}
		dist := distBase[ds]
		if eb := distExtra[ds]; eb > 0 {
			extra, err := r.ReadBits(eb)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			dist += int(extra)
		}
		if dist <= 0 || dist > len(dst) {
			return nil, ErrCorrupt
		}
		if len(dst)+length > origLen {
			return nil, ErrCorrupt
		}
		// The match may overlap its own output (dist < length): what is
		// written so far repeats with period dist, so each step copies all
		// of it and doubles what the next can copy.
		start, pos := len(dst)-dist, len(dst)
		dst = dst[:pos+length]
		for n := 0; n < length; {
			n += copy(dst[pos+n:], dst[start:pos+n])
		}
	}
	return dst, nil
}
