// Package bitio provides bit-granular reading and writing on top of byte
// slices and io streams. It is the substrate shared by every entropy coder in
// this repository (Huffman, arithmetic, LZ pointer coding, BWT back end).
//
// Bits are packed MSB-first within each byte: the first bit written becomes
// the most significant bit of the first output byte. This matches the
// convention used by JPEG-style Huffman streams and makes hex dumps of the
// output legible during debugging.
package bitio

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrTooManyBits is returned when a caller asks to read or write more than 64
// bits in a single call.
var ErrTooManyBits = errors.New("bitio: at most 64 bits per call")

// Writer accumulates bits MSB-first into an in-memory buffer.
//
// The zero value is ready to use. Writer never fails: it grows its buffer as
// needed, so the only error surface is the explicit ErrTooManyBits guard.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits in the low nbit positions; the rest is stale
	nbit uint   // number of pending bits (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes of
// output. A sizeHint of 0 is valid.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the low n bits of v, most significant first. Bits
// collect in a 64-bit word that reaches the buffer whole, so the common call
// is a shift and an add.
func (w *Writer) WriteBits(v uint64, n uint) error {
	if n > 64 {
		return ErrTooManyBits
	}
	v &^= ^uint64(0) << n // a shift by 64 leaves no mask, so all of v stays
	if w.nbit+n < 64 {
		w.cur = w.cur<<n | v
		w.nbit += n
		return nil
	}
	w.spill(v, n)
	return nil
}

// spill completes the pending word with the leading bits of v, appends it,
// and keeps the rest of v pending.
func (w *Writer) spill(v uint64, n uint) {
	rest := w.nbit + n - 64 // bits of v the word has no room for
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur<<(64-w.nbit)|v>>rest)
	w.cur = v // only its low rest bits count
	w.nbit = rest
}

// WriteBit appends a single bit (any nonzero b writes 1).
func (w *Writer) WriteBit(b int) {
	var v uint64
	if b != 0 {
		v = 1
	}
	_ = w.WriteBits(v, 1) // one bit is never too many
}

// WriteByte appends 8 bits.
func (w *Writer) WriteByte(b byte) error {
	return w.WriteBits(uint64(b), 8)
}

// Bytes pads the final partial byte with zero bits and returns the packed
// buffer. The Writer remains usable; further writes continue bit-exactly
// after the previously written bits only if the bit length was already a
// multiple of 8, so callers normally call Bytes exactly once, at the end.
func (w *Writer) Bytes() []byte {
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit))
	}
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
	}
	w.cur, w.nbit = 0, 0
	return w.buf
}

// Reset truncates the writer to empty, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nbit = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int    // next byte index
	cur  uint64 // prefetched bits, right-aligned
	nbit uint   // valid bits in cur
}

// NewReader returns a Reader over buf. The Reader does not copy buf; callers
// must not mutate it while reading.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// fill tries to buffer at least n (≤57) bits.
func (r *Reader) fill(n uint) {
	for r.nbit < n && r.pos < len(r.buf) {
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.nbit += 8
	}
}

// ReadBits reads n bits MSB-first. It returns io.ErrUnexpectedEOF if fewer
// than n bits remain.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrTooManyBits
	}
	if n == 0 {
		return 0, nil
	}
	if n > 57 {
		// Split: the prefetch word can only hold 57+7 bits safely.
		hi, err := r.ReadBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	r.fill(n)
	if r.nbit < n {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.cur >> (r.nbit - n)
	r.nbit -= n
	r.cur &= (1 << r.nbit) - 1
	return v, nil
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (int, error) {
	v, err := r.ReadBits(1)
	return int(v), err
}

// PeekBits returns the next n (≤ 32) bits without consuming them. If fewer
// than n bits remain, the result is left-aligned into n bits with zero
// padding and avail reports how many real bits it contains.
func (r *Reader) PeekBits(n uint) (v uint64, avail uint) {
	if n > 32 {
		n = 32
	}
	r.fill(n)
	avail = r.nbit
	if avail >= n {
		return r.cur >> (r.nbit - n), n
	}
	// Left-align what we have and pad with zeros.
	return r.cur << (n - r.nbit), avail
}

// SkipBits consumes n bits previously peeked. n must not exceed the bits
// actually buffered plus remaining input; exceeding input is an error.
func (r *Reader) SkipBits(n uint) error {
	_, err := r.ReadBits(n)
	return err
}

// ReadByte reads 8 bits as a byte.
func (r *Reader) ReadByte() (byte, error) {
	v, err := r.ReadBits(8)
	return byte(v), err
}

// BitsRemaining reports how many unread bits remain (including padding bits
// in the final byte).
func (r *Reader) BitsRemaining() int {
	return int(r.nbit) + (len(r.buf)-r.pos)*8
}
