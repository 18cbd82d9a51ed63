// Package bwt implements the paper's adapted Burrows-Wheeler compression
// pipeline (§2.4). The stages are exactly the paper's:
//
//  1. The input is split into chunks; each chunk is Burrows-Wheeler
//     transformed (sorting all cyclic rotations).
//  2. Each transformed chunk runs through move-to-front coding.
//  3. Run-length coding with runs capped at 254 so that byte 255 never
//     appears inside a chunk; byte 255 is instead appended to the end of
//     every chunk as a synchronization marker.
//  4. All chunks are compressed jointly with a single Huffman code. Because
//     canonical Huffman decoding self-synchronizes (ref [31]), a receiver
//     that starts mid-stream can scan to the next 255 marker and resume on
//     a chunk boundary — the property the paper adds for out-of-order
//     block delivery.
//
// On a slow line this method is nearly every block the selector sends, and
// sorting the rotations is most of what a block costs, so the sort is
// linear-time: suffix sorting by induced sorting (sais.go). A suffix sorter
// orders rotations once the chunk is turned to its least rotation: that
// rotation is u^k for a Lyndon word u, and for a Lyndon word the order of
// the suffixes is the order of the rotations. When k > 1 the chunk is an
// exact power and its rotations repeat in k equal copies; u is sorted once
// and each row stands k times.
//
// Decompress inverts chunks four at a time. The walk back through a chunk
// is a chain of dependent loads, so each chunk's last column and LF mapping
// are packed into one table (one load per byte, not two) in a lane of its
// own and four chains are walked in one loop, their loads overlapping; what
// is left of a block, or chunks of unequal length, are walked one by one.
//
// No call computes for longer than one such unit without yielding: Go runs
// expired timers and readied goroutines when a processor enters the
// scheduler, and a wire writer should not wait out a block. Compress yields
// after each chunk; Decompress, which the sender's writer is waiting on and
// which each yield can queue behind somebody's chunk, after each group.
// Neither is a setting.
//
// Wire format, after Huffman decoding: per chunk, the chunk length and the
// primary index (the row of the sorted rotation matrix that holds the chunk
// itself) as four 7-bit bytes each, the run-length-coded move-to-front ranks
// of the last column, then the marker. Where rows are equal — only in a
// chunk that is an exact power — the primary index is the first of the rows
// equal to the chunk. Any of them inverts to the same text, and encoders
// before the linear-time sort named whichever their sort left there.
package bwt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ccx/internal/huffman"
)

// DefaultChunkSize is the per-chunk unit for transform and synchronization.
// Larger chunks compress better — the paper's tradeoff of "shorter files are
// less effectively compressed" — but outgrow the cache the sort works in.
const DefaultChunkSize = 16 * 1024

// maxChunkLen is the longest chunk whose rows fit the 24 bits the inverse's
// packed table gives a row; it is also the longest block a frame carries.
// (The header's four 7-bit bytes could state 2^28-1.)
const maxChunkLen = 1 << 24

// lanes is how many chunks Decompress inverts side by side.
const lanes = 4

// marker is the reserved synchronization byte that terminates every chunk.
const marker = 0xFF

// ErrCorrupt is returned for malformed or truncated compressed data.
var ErrCorrupt = errors.New("bwt: corrupt input")

// scratch holds every intermediate of one Compress or Decompress call, so
// that with the pool warm a call allocates its result and nothing else (and
// a process that never uses this method never builds one). The arrays grow
// to the largest chunk seen and are reused chunk after chunk, the four
// tables group after group; nothing in here outlives the call that took it
// from the pool.
type scratch struct {
	turned []byte          // encode: the chunk twice over, led by its own last byte
	last   []byte          // last column; while decoding, the ranks it is recovered from
	sa     []int32         // encode: suffix array of the chunk's root
	work   []int32         // encode: bucket tables of the suffix sort
	lf     [lanes][]uint32 // decode: per chunk of a group, LF(i)<<8 | last[i]
	inter  []byte          // the marker-delimited stream the Huffman stage codes
	hdr    [binary.MaxVarintLen64]byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// transform computes the Burrows-Wheeler transform of a non-empty src into
// s.last: the last column of the sorted rotation matrix, plus the row at
// which src itself appears (the first such row when several are equal).
func (s *scratch) transform(src []byte) (last []byte, primary int) {
	n := len(src)
	// src twice over behind its own last byte: every rotation is a plain
	// slice of it, and the byte before the one at twice[i] is turned[i].
	s.turned = slices.Grow(s.turned[:0], 2*n+1)[:2*n+1]
	turned, twice := s.turned, s.turned[1:]
	turned[0] = src[n-1]
	copy(twice, src)
	copy(twice[n:], src)
	start, p := leastRotation(twice)
	k := n / p // src turned to start is u^k
	u, before := twice[start:start+p], turned[start:start+p]

	s.sa = slices.Grow(s.sa[:0], p)[:p]
	s.work = slices.Grow(s.work[:0], 2*256+3*p)[:2*256+3*p]
	sais(u, s.sa, 256, s.work)

	// Row a of u's matrix is rows a, a+p, ... of the turned chunk's, and the
	// chunk itself is turned back by n-start, in the class of that mod p.
	self := int32((n - start) % p)
	s.last = slices.Grow(s.last[:0], n)[:n]
	row := 0
	for i, a := range s.sa {
		if a == self {
			primary = i * k
		}
		for end := row + k; row < end; row++ {
			s.last[row] = before[a]
		}
	}
	return s.last, primary
}

// leastRotation takes a text written out twice and returns where its
// lexicographically least rotation starts and the length of that rotation's
// primitive root: the text turned to start is u^k with u a Lyndon word of
// length period. It is Duval's factorization, which needs no memory.
func leastRotation(twice []byte) (start, period int) {
	for i := 0; i < len(twice)/2; {
		start = i
		j, k := i+1, i
		for j < len(twice) && twice[k] <= twice[j] {
			if twice[k] < twice[j] {
				k = i
			} else {
				k++
			}
			j++
		}
		period = j - k
		for i <= k {
			i += period
		}
	}
	return start, period
}

// lfTable packs a last column and its LF mapping, LF(i) = C[last[i]] +
// occ(last[i], i), into t, one word per row: LF(i)<<8 | last[i]. Walking the
// text back is then one load per byte. Every index comes from counting the
// column, so whatever the column holds the mapping is a permutation of its
// rows and a walk cannot leave it.
func lfTable(t []uint32, last []byte) []uint32 {
	var next [256]uint32
	for _, b := range last {
		next[b]++
	}
	sum := uint32(0)
	for v, c := range next {
		next[v] = sum<<8 | uint32(v)
		sum += c
	}
	t = slices.Grow(t[:0], len(last))[:len(last)]
	for i, b := range last {
		t[i] = next[b]
		next[b] += 1 << 8
	}
	return t
}

// walk reverses transform: it writes into dst, back to front, the text whose
// table is t (same length) and whose own row is row.
func walk(dst []byte, t []uint32, row uint32) {
	for k := len(dst) - 1; k >= 0; k-- {
		v := t[row]
		dst[k] = byte(v)
		row = v >> 8
	}
}

// walk4 is walk over four texts of one length at once: each chain's next
// load waits on its last, and four chains that do not wait on each other
// keep four loads in flight.
func walk4(dst *[lanes][]byte, t *[lanes][]uint32, row [lanes]uint32) {
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
	r0, r1, r2, r3 := row[0], row[1], row[2], row[3]
	for k := len(d0) - 1; k >= 0; k-- {
		v0, v1, v2, v3 := t0[r0], t1[r1], t2[r2], t3[r3]
		d0[k], d1[k], d2[k], d3[k] = byte(v0), byte(v1), byte(v2), byte(v3)
		r0, r1, r2, r3 = v0>>8, v1>>8, v2>>8, v3>>8
	}
}

// appendMTFRLE appends to dst the run-length coding of the move-to-front
// ranks of last, in one pass. Move-to-front: each byte becomes its position
// in a recency list and moves to the front of it. Run-length coding, with
// the paper's constraint that byte 255 never appears in the output: ranks
// 0..253 are emitted directly; a run of three identical such ranks is always
// followed by one count byte giving up to 251 additional repeats (total run
// ≤ 254, the paper's cap). Ranks 254 and 255 are escaped as the pairs
// (254,0) and (254,1).
func appendMTFRLE(dst, last []byte) []byte {
	var list [256]byte
	for i := range list {
		list[i] = byte(i)
	}
	prev, run := -1, 0 // the run of rank prev not yet emitted
	for _, b := range last {
		rank := 0
		if list[0] != b { // a sorted column mostly repeats its last byte
			for rank = 1; list[rank] != b; rank++ {
			}
			copy(list[1:rank+1], list[:rank])
			list[0] = b
		}
		if rank == prev && run < 254 {
			run++
			continue
		}
		dst = appendRun(dst, prev, run)
		if rank >= 254 {
			dst = append(dst, 254, byte(rank-254))
			prev, run = -1, 0
		} else {
			prev, run = rank, 1
		}
	}
	return appendRun(dst, prev, run)
}

// appendRun emits a run of 0 to 254 copies of one rank below 254.
func appendRun(dst []byte, rank, run int) []byte {
	v := byte(rank)
	if run >= 3 {
		return append(dst, v, v, v, byte(run-3))
	}
	return append(dst, v, v)[:len(dst)+run]
}

// rleDecode reverses the run-length half of appendMTFRLE into dst, which
// must come out exactly full: the byte that would overflow it is an error,
// so the work is bounded by the declared length, not by what src claims.
// Encountering the reserved byte 255 is an error at this layer (it only
// appears as the chunk marker, which the caller strips).
func rleDecode(dst, src []byte) error {
	n := 0
	streak := 0
	var prev byte
	for i := 0; i < len(src); i++ {
		b := src[i]
		count := 1
		switch {
		case b == marker:
			return fmt.Errorf("%w: reserved marker byte inside chunk", ErrCorrupt)
		case b == 254:
			i++
			if i >= len(src) || src[i] > 1 {
				return fmt.Errorf("%w: bad escape", ErrCorrupt)
			}
			b += src[i]
			streak = 0
		case streak > 0 && b == prev:
			streak++
		default:
			streak, prev = 1, b
		}
		if streak == 3 {
			i++
			if i >= len(src) {
				return fmt.Errorf("%w: truncated run count", ErrCorrupt)
			}
			if src[i] > 251 {
				return fmt.Errorf("%w: run count %d exceeds cap", ErrCorrupt, src[i])
			}
			count += int(src[i])
			streak = 0
		}
		if count > len(dst)-n {
			return fmt.Errorf("%w: chunk longer than its header's %d", ErrCorrupt, len(dst))
		}
		for end := n + count; n < end; n++ {
			dst[n] = b
		}
	}
	if n != len(dst) {
		return fmt.Errorf("%w: chunk length %d != header %d", ErrCorrupt, n, len(dst))
	}
	return nil
}

// mtfDecode reverses the move-to-front half of appendMTFRLE in place.
func mtfDecode(buf []byte) {
	var list [256]byte
	for i := range list {
		list[i] = byte(i)
	}
	for i, rank := range buf {
		if rank == 0 {
			buf[i] = list[0]
			continue
		}
		b := list[rank]
		copy(list[1:int(rank)+1], list[:rank])
		list[0] = b
		buf[i] = b
	}
}

// encode7 writes v as four 7-bit bytes (each ≤ 0x7F, so never the marker).
func encode7(dst []byte, v int) []byte {
	return append(dst,
		byte(v>>21&0x7F), byte(v>>14&0x7F), byte(v>>7&0x7F), byte(v&0x7F))
}

func decode7(src []byte) (int, error) {
	if len(src) < 4 {
		return 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	v := 0
	for i := 0; i < 4; i++ {
		if src[i] > 0x7F {
			return 0, fmt.Errorf("%w: header byte %#x out of range", ErrCorrupt, src[i])
		}
		v = v<<7 | int(src[i])
	}
	return v, nil
}

// Compress runs the full pipeline with DefaultChunkSize.
func Compress(src []byte) ([]byte, error) {
	return CompressChunked(src, DefaultChunkSize)
}

// CompressChunked runs the full pipeline with an explicit chunk size.
func CompressChunked(src []byte, chunkSize int) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("bwt: invalid chunk size %d", chunkSize)
	}
	chunkSize = min(chunkSize, maxChunkLen)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	// Build the marker-delimited intermediate stream.
	inter := s.inter[:0]
	for len(src) > 0 {
		chunk := src[:min(chunkSize, len(src))]
		src = src[len(chunk):]
		last, primary := s.transform(chunk)
		inter = encode7(inter, len(chunk))
		inter = encode7(inter, primary)
		inter = appendMTFRLE(inter, last)
		inter = append(inter, marker)
		runtime.Gosched() // a chunk is as long as an encode keeps its processor
	}
	s.inter = inter
	// Joint Huffman over every chunk (§2.4: "all of the chunks are
	// compressed jointly using Huffman coding"), appended to the stream
	// length. The prefix is handed over without spare capacity, so the
	// result is a fresh slice and not a view of the scratch.
	n := binary.PutUvarint(s.hdr[:], uint64(len(inter)))
	return huffman.AppendCompress(s.hdr[:n:n], inter)
}

// Decompress reverses Compress/CompressChunked, producing exactly origLen
// bytes. The chunk size is self-describing (each chunk header carries its
// original length), so the decoder does not need the encoder's setting.
// Every length in the stream is checked against origLen or the input before
// anything is sized by it.
func Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	interLen, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad stream header", ErrCorrupt)
	}
	if interLen > uint64(origLen)*3+4096 {
		return nil, fmt.Errorf("%w: implausible intermediate length %d", ErrCorrupt, interLen)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.inter = slices.Grow(s.inter[:0], int(interLen))[:int(interLen)]
	if err := huffman.DecompressInto(s.inter, src[n:]); err != nil {
		return nil, err
	}
	dst := make([]byte, origLen)
	off := 0
	for inter := s.inter; len(inter) > 0; {
		// A group: up to four chunks, each with its table in a lane of its own.
		var out [lanes][]byte
		var row [lanes]uint32
		g := 0
		for ; g < lanes && len(inter) > 0; g++ {
			chunkLen, err := decode7(inter)
			if err != nil {
				return nil, err
			}
			primary, err := decode7(inter[4:])
			if err != nil {
				return nil, err
			}
			if chunkLen > origLen-off {
				return nil, fmt.Errorf("%w: output exceeds original length", ErrCorrupt)
			}
			if chunkLen > maxChunkLen || primary >= chunkLen {
				return nil, fmt.Errorf("%w: chunk of %d with primary index %d", ErrCorrupt, chunkLen, primary)
			}
			inter = inter[8:]
			// Chunk body runs to the next marker byte.
			end := bytes.IndexByte(inter, marker)
			if end < 0 {
				return nil, fmt.Errorf("%w: missing chunk marker", ErrCorrupt)
			}
			s.last = slices.Grow(s.last[:0], chunkLen)[:chunkLen]
			if err := rleDecode(s.last, inter[:end]); err != nil {
				return nil, err
			}
			mtfDecode(s.last)
			s.lf[g] = lfTable(s.lf[g], s.last)
			out[g], row[g] = dst[off:off+chunkLen], uint32(primary)
			off += chunkLen
			inter = inter[end+1:]
		}
		n := len(out[0])
		if g == lanes && len(out[1]) == n && len(out[2]) == n && len(out[3]) == n {
			walk4(&out, &s.lf, row)
		} else {
			for i := range out[:g] {
				walk(out[i], s.lf[i], row[i])
			}
		}
		// The peer's writer waits on this goroutine: a group is as often as
		// it can yield without queueing behind an encoder's every chunk.
		runtime.Gosched()
	}
	if off != origLen {
		return nil, fmt.Errorf("%w: produced %d bytes, want %d", ErrCorrupt, off, origLen)
	}
	return dst, nil
}
