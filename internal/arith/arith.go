// Package arith implements adaptive order-0 arithmetic coding (§2.2 of the
// paper), following the integer implementation of Witten, Neal and Cleary
// (CACM 1987, ref [21]) with 32-bit code values.
//
// The coder is adaptive: both ends start from a uniform byte model and update
// identically after each symbol, so no model needs to be transmitted. The
// framing layer records the original length, so no EOF symbol is coded.
package arith

import (
	"errors"
	"runtime"

	"ccx/internal/bitio"
)

// ErrCorrupt is returned when the decoder runs out of input prematurely.
var ErrCorrupt = errors.New("arith: corrupt or truncated input")

const (
	codeBits = 32
	full     = uint64(1) << codeBits
	half     = full / 2
	quarter  = full / 4
	// maxTotal bounds the model's total frequency so range*cum products fit
	// comfortably in 64 bits and precision stays adequate.
	maxTotal = 1 << 16
	// increment is the per-occurrence frequency bump; a larger increment
	// adapts faster to local statistics.
	increment = 32
)

const alphabetSize = 256

// yieldEvery is how many symbols a coding loop handles between yields of its
// processor: the slowest method must not be the longest anyone waits.
const yieldEvery = 16 * 1024

// yield gives the processor up when symbol i ends a run of yieldEvery.
func yield(i int) {
	if i%yieldEvery == yieldEvery-1 {
		runtime.Gosched()
	}
}

// model is an adaptive byte-frequency model backed by a Fenwick tree for
// O(log n) cumulative-frequency queries and updates.
type model struct {
	tree  [alphabetSize + 1]uint32 // 1-based Fenwick tree
	freq  [alphabetSize]uint32
	total uint32
}

func newModel() *model {
	m := &model{}
	for i := 0; i < alphabetSize; i++ {
		m.freq[i] = 1
		m.add(i, 1)
	}
	m.total = alphabetSize
	return m
}

func (m *model) add(sym int, delta uint32) {
	for i := sym + 1; i <= alphabetSize; i += i & (-i) {
		m.tree[i] += delta
	}
}

// cumBefore returns the total frequency of symbols < sym.
func (m *model) cumBefore(sym int) uint32 {
	var s uint32
	for i := sym; i > 0; i -= i & (-i) {
		s += m.tree[i]
	}
	return s
}

// find locates the symbol whose cumulative interval contains target and
// returns (sym, cumBefore(sym)).
func (m *model) find(target uint32) (int, uint32) {
	idx := 0
	var cum uint32
	// Standard Fenwick descent; alphabetSize is a power of two.
	for step := alphabetSize; step > 0; step >>= 1 {
		next := idx + step
		if next <= alphabetSize && cum+m.tree[next] <= target {
			idx = next
			cum += m.tree[next]
		}
	}
	return idx, cum
}

func (m *model) update(sym int) {
	m.add(sym, increment)
	m.freq[sym] += increment
	m.total += increment
	if m.total >= maxTotal {
		m.rescale()
	}
}

// rescale halves all frequencies (keeping them ≥1), preserving adaptivity
// while bounding totals; both encoder and decoder rescale at the same point.
func (m *model) rescale() {
	for i := range m.tree {
		m.tree[i] = 0
	}
	m.total = 0
	for i := 0; i < alphabetSize; i++ {
		f := m.freq[i]/2 + 1
		m.freq[i] = f
		m.add(i, f)
		m.total += f
	}
}

// Compress encodes src adaptively. The caller must retain len(src) for
// Decompress (stored by the codec framing layer).
func Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	m := newModel()
	w := bitio.NewWriter(len(src)/2 + 64)
	low, high := uint64(0), full-1
	pending := 0

	emit := func(bit int) {
		w.WriteBit(bit)
		inv := 1 - bit
		for ; pending > 0; pending-- {
			w.WriteBit(inv)
		}
	}

	for i, b := range src {
		yield(i)
		sym := int(b)
		total := uint64(m.total)
		cumLo := uint64(m.cumBefore(sym))
		cumHi := cumLo + uint64(m.freq[sym])
		span := high - low + 1
		high = low + span*cumHi/total - 1
		low = low + span*cumLo/total
		for {
			switch {
			case high < half:
				emit(0)
			case low >= half:
				emit(1)
				low -= half
				high -= half
			case low >= quarter && high < half+quarter:
				pending++
				low -= quarter
				high -= quarter
			default:
				goto settled
			}
			low <<= 1
			high = high<<1 | 1
		}
	settled:
		m.update(sym)
	}
	// Flush: disambiguate the final interval.
	pending++
	if low < quarter {
		emit(0)
	} else {
		emit(1)
	}
	return w.Bytes(), nil
}

// Decompress reverses Compress, producing exactly origLen bytes.
func Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	m := newModel()
	r := bitio.NewReader(src)
	readBit := func() uint64 {
		// Past end of stream, zero bits are implied; the WNC construction
		// guarantees the encoder emitted enough bits to disambiguate.
		bit, err := r.ReadBit()
		if err != nil {
			return 0
		}
		return uint64(bit)
	}
	var value uint64
	for i := 0; i < codeBits; i++ {
		value = value<<1 | readBit()
	}
	low, high := uint64(0), full-1
	dst := make([]byte, origLen)
	for i := 0; i < origLen; i++ {
		yield(i)
		total := uint64(m.total)
		span := high - low + 1
		target := ((value-low+1)*total - 1) / span
		if target >= total {
			return nil, ErrCorrupt
		}
		sym, cum := m.find(uint32(target))
		cumLo := uint64(cum)
		cumHi := cumLo + uint64(m.freq[sym])
		high = low + span*cumHi/total - 1
		low = low + span*cumLo/total
		for {
			switch {
			case high < half:
				// nothing
			case low >= half:
				low -= half
				high -= half
				value -= half
			case low >= quarter && high < half+quarter:
				low -= quarter
				high -= quarter
				value -= quarter
			default:
				goto settled
			}
			low <<= 1
			high = high<<1 | 1
			value = value<<1 | readBit()
		}
	settled:
		dst[i] = byte(sym)
		m.update(sym)
	}
	return dst, nil
}
