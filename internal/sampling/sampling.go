// Package sampling implements the data-sampling side of the paper's
// selection loop (§2.5 and §4.1): before each 128 KB block is sent, the
// first 4 KB of the *next* block is compressed with Lempel-Ziv by a
// concurrent worker; the probe's compression ratio predicts the block's
// compressibility and its timing yields the current "reducing speed"
// (bytes of size reduction per second of CPU).
//
// The package also provides the two data-characteristic detectors the paper
// derives from Figure 6: entropy estimation (low-entropy data suits
// Huffman/arithmetic) and string-repetition scoring (repetitive data suits
// Lempel-Ziv/Burrows-Wheeler).
package sampling

import (
	"encoding/binary"
	"math"
	"time"

	"ccx/internal/lz"
)

// DefaultProbeSize is the paper's 4 KB sample.
const DefaultProbeSize = 4 * 1024

// Entropy returns the order-0 Shannon entropy of data in bits per byte
// (0 for empty input).
func Entropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	n := float64(len(data))
	h := 0.0
	for _, f := range freq {
		if f == 0 {
			continue
		}
		p := float64(f) / n
		h -= p * math.Log2(p)
	}
	return h
}

// repTableBits sizes RepetitionScore's on-stack gram table: 8192 slots keep
// the 4 KB default sample (4093 grams) at or below half load.
const repTableBits = 13

// RepetitionScore estimates string repetitiveness as the fraction of
// positions whose 4-byte gram already occurred earlier in data. Values near
// 1 indicate LZ-friendly data; values near 0 indicate novel content.
//
// The set of grams seen so far is an open-addressing table of the full
// 4-byte grams (so two grams never collide into one, and the count is exact),
// on the stack for samples up to the default probe size.
func RepetitionScore(data []byte) float64 {
	if len(data) < 8 {
		return 0
	}
	total := len(data) - 3
	var stack [1 << repTableBits]uint32
	table, bits := stack[:], uint(repTableBits)
	for total > (1<<bits)/2 {
		bits++
	}
	if bits > repTableBits { // oversized sample (ProbeSize override): same load bound, on the heap
		table = make([]uint32, 1<<bits)
	}
	mask := uint32(len(table) - 1)
	// A zero slot is empty, so the all-zero gram is tracked beside the table.
	zeroSeen := false
	repeats := 0
	for i := 0; i < total; i++ {
		g := binary.LittleEndian.Uint32(data[i:])
		if g == 0 {
			if zeroSeen {
				repeats++
			}
			zeroSeen = true
			continue
		}
		slot := (g * 2654435761) >> (32 - bits) // Knuth's multiplicative hash
		for table[slot] != 0 && table[slot] != g {
			slot = (slot + 1) & mask
		}
		if table[slot] == g {
			repeats++
		} else {
			table[slot] = g
		}
	}
	return float64(repeats) / float64(total)
}

// ProbeResult summarizes one Lempel-Ziv sampling probe.
type ProbeResult struct {
	// SampleLen is how many bytes were probed.
	SampleLen int
	// CompressedLen is the probe's compressed size.
	CompressedLen int
	// Ratio is CompressedLen/SampleLen — the paper's "sampling has been
	// compressed into less than 48.78%" test consumes this.
	Ratio float64
	// Duration is the CPU time the probe took.
	Duration time.Duration
	// ReducingSpeed is bytes of size reduction per second (the paper's
	// Figure 4 metric), 0 when the sample did not shrink.
	ReducingSpeed float64
	// Entropy and Repetition characterize the sample (Figure 6 criteria).
	Entropy    float64
	Repetition float64
	// Age is how many blocks ago the result was measured: Probe always
	// reports 0, and a caller that decides a later block from a remembered
	// result (core.Engine on a line that outruns the codec) sets it to that
	// block's distance from the measured one and zeroes Duration, since no
	// probe time was spent on the block.
	Age int
}

// Sampler runs LZ probes. The zero value is usable: DefaultProbeSize and
// the real clock.
type Sampler struct {
	// ProbeSize bounds how many bytes of the block are sampled
	// (DefaultProbeSize when 0).
	ProbeSize int
	// Now supplies timestamps; defaults to time.Now. Tests and the
	// deterministic simulation harness inject virtual clocks here.
	Now func() time.Time
	// SpeedScale divides measured reducing speed, emulating a slower CPU
	// (the paper's Ultra-Sparc vs Sun-Fire comparison) or a loaded one.
	// Values ≤ 0 mean 1.
	SpeedScale float64
}

// Probe compresses the first ProbeSize bytes of block with Lempel-Ziv and
// reports ratio, timing and data characteristics.
func (s *Sampler) Probe(block []byte) ProbeResult {
	size := s.ProbeSize
	if size <= 0 {
		size = DefaultProbeSize
	}
	if size > len(block) {
		size = len(block)
	}
	sample := block[:size]
	now := s.Now
	if now == nil {
		now = time.Now
	}
	res := ProbeResult{SampleLen: size}
	if size == 0 {
		res.Ratio = 1
		return res
	}
	start := now()
	out, err := lz.Compress(sample)
	res.Duration = now().Sub(start)
	if err != nil {
		// A probe failure is not fatal to the exchange: report the sample as
		// incompressible so the selector sends raw.
		res.CompressedLen = size
		res.Ratio = 1
		return res
	}
	res.CompressedLen = len(out)
	res.Ratio = float64(len(out)) / float64(size)
	scale := s.SpeedScale
	if scale <= 0 {
		scale = 1
	}
	if reduced := size - len(out); reduced > 0 && res.Duration > 0 {
		res.ReducingSpeed = float64(reduced) / res.Duration.Seconds() / scale
	}
	res.Entropy = Entropy(sample)
	res.Repetition = RepetitionScore(sample)
	return res
}
