// This file is the application's own codec — the paper's §5 future-work
// direction: letting end users "integrate their own, application-specific, lossy compression
// techniques into data streaming middleware". The paper motivates this
// with exactly the case our Figure 11/12 runs reproduce — molecular
// coordinate data that lossless methods cannot shrink, where the useful
// information fits in far fewer bits than IEEE-754 carries.
//
// Float64Quantizer is such a codec: it reads the payload as a little-endian
// float64 array, snaps each value to a caller-chosen absolute grid, delta
// codes the grid indices (scientific trajectories vary slowly), and entropy
// codes the result. It implements codec.Codec, so it deploys at runtime
// through the open registry and a derived channel, with no change to
// producers — the §3.2 mechanism.

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ccx/internal/codec"
	"ccx/internal/huffman"
)

// ErrCorrupt is returned for malformed compressed data.
var ErrCorrupt = errors.New("lossy: corrupt input")

// Float64Quantizer is a lossy codec for streams of float64 values.
// Reconstructed values differ from the originals by at most Step/2.
type Float64Quantizer struct {
	id codec.Method
	// step is the quantization grid; larger steps compress harder.
	step float64
}

var _ codec.Codec = (*Float64Quantizer)(nil)

// NewFloat64Quantizer builds a quantizer with the given registry identifier
// (use codec.FirstCustom or above) and absolute tolerance step.
func NewFloat64Quantizer(id codec.Method, step float64) (*Float64Quantizer, error) {
	if id < codec.FirstCustom {
		return nil, fmt.Errorf("lossy: method id %v collides with built-in space; use ≥ %v",
			id, codec.FirstCustom)
	}
	if step <= 0 || math.IsInf(step, 0) || math.IsNaN(step) {
		return nil, fmt.Errorf("lossy: invalid step %v", step)
	}
	return &Float64Quantizer{id: id, step: step}, nil
}

// Method implements codec.Codec.
func (q *Float64Quantizer) Method() codec.Method { return q.id }

// Step reports the quantization grid.
func (q *Float64Quantizer) Step() float64 { return q.step }

// Compress implements codec.Codec. Payload layout:
//
//	tailLen(uvarint) tail(raw)            — bytes past the last full float64
//	interLen(uvarint) huffman(zigzag-varint deltas of grid indices)
//
// Values that do not survive quantization (NaN, ±Inf, |v| too large for the
// grid) abort with an error rather than silently corrupting science data.
func (q *Float64Quantizer) Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	n := len(src) / 8
	tail := src[n*8:]

	inter := make([]byte, 0, n*2+16)
	prev := int64(0)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("lossy: value %v at index %d not quantizable", v, i)
		}
		idxF := math.Round(v / q.step)
		if idxF > math.MaxInt64/2 || idxF < math.MinInt64/2 {
			return nil, fmt.Errorf("lossy: value %v at index %d overflows the grid", v, i)
		}
		idx := int64(idxF)
		inter = binary.AppendVarint(inter, idx-prev)
		prev = idx
	}
	hc, err := huffman.Compress(inter)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(hc)+len(tail)+2*binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(tail)))
	out = append(out, tail...)
	out = binary.AppendUvarint(out, uint64(len(inter)))
	return append(out, hc...), nil
}

// Decompress implements codec.Codec.
func (q *Float64Quantizer) Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	tailLen, used := binary.Uvarint(src)
	if used <= 0 || uint64(len(src)-used) < tailLen || tailLen > 7 {
		return nil, fmt.Errorf("%w: tail header", ErrCorrupt)
	}
	src = src[used:]
	tail := src[:tailLen]
	src = src[tailLen:]
	interLen, used := binary.Uvarint(src)
	if used <= 0 || interLen > uint64(origLen)*3+64 {
		return nil, fmt.Errorf("%w: stream header", ErrCorrupt)
	}
	inter, err := huffman.Decompress(src[used:], int(interLen))
	if err != nil {
		return nil, err
	}
	n := (origLen - int(tailLen)) / 8
	if n*8+int(tailLen) != origLen {
		return nil, fmt.Errorf("%w: length %d not consistent with tail %d", ErrCorrupt, origLen, tailLen)
	}
	dst := make([]byte, 0, origLen)
	prev := int64(0)
	for i := 0; i < n; i++ {
		delta, used := binary.Varint(inter)
		if used <= 0 {
			return nil, fmt.Errorf("%w: truncated delta stream", ErrCorrupt)
		}
		inter = inter[used:]
		prev += delta
		v := float64(prev) * q.step
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return append(dst, tail...), nil
}
