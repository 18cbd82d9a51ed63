// Package selector implements the paper's table-driven compression-method
// selection algorithm (§2.5). Per 128 KB block, it weighs the predicted
// time to send the block uncompressed (from end-to-end goodput measurement)
// against the predicted time for Lempel-Ziv to reduce the block (from the
// 4 KB sampling probe), and picks:
//
//	no compression   — the line is fast relative to the CPU
//	Huffman          — the line is slow but the data lacks string repeats
//	Lempel-Ziv       — the line is slow and the data is compressible
//	Burrows-Wheeler  — the line is so slow the strongest method pays off
//
// The paper's constants (0.83, 3.48, 48.78 %) are defaults in Config; §2.5
// notes they "can be tuned easily by sampling even a small piece of data",
// so everything is parameterized.
package selector

import (
	"fmt"
	"time"

	"ccx/internal/codec"
)

// Paper constants from the §2.5 pseudocode.
const (
	// DefaultBlockSize is the paper's 128 KB block unit.
	DefaultBlockSize = 128 * 1024
	// DefaultSendVsReduce is the compression-pays-off threshold: compress
	// when sending takes more than 0.83× the Lempel-Ziv reduction time.
	DefaultSendVsReduce = 0.83
	// DefaultStrongVsReduce is the Burrows-Wheeler threshold: use the
	// strongest method when sending takes more than 3.48× the Lempel-Ziv
	// reduction time.
	DefaultStrongVsReduce = 3.48
	// DefaultSampleCutoff is the compressibility gate: the 4 KB probe must
	// shrink below 48.78 % of its original size for the dictionary methods
	// to be preferred over Huffman.
	DefaultSampleCutoff = 0.4878
)

// Config parameterizes the decision algorithm.
type Config struct {
	// BlockSize is the transmission block unit in bytes.
	BlockSize int
	// SendVsReduce, StrongVsReduce and SampleCutoff are the three decision
	// thresholds described above.
	SendVsReduce   float64
	StrongVsReduce float64
	SampleCutoff   float64
}

// DefaultConfig returns the paper's published constants.
func DefaultConfig() Config {
	return Config{
		BlockSize:      DefaultBlockSize,
		SendVsReduce:   DefaultSendVsReduce,
		StrongVsReduce: DefaultStrongVsReduce,
		SampleCutoff:   DefaultSampleCutoff,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("selector: block size %d", c.BlockSize)
	}
	if c.SendVsReduce <= 0 || c.StrongVsReduce <= 0 {
		return fmt.Errorf("selector: thresholds must be positive")
	}
	if c.StrongVsReduce < c.SendVsReduce {
		return fmt.Errorf("selector: strong threshold %v below weak threshold %v",
			c.StrongVsReduce, c.SendVsReduce)
	}
	if c.SampleCutoff <= 0 || c.SampleCutoff > 1 {
		return fmt.Errorf("selector: sample cutoff %v out of (0,1]", c.SampleCutoff)
	}
	return nil
}

// Inputs are the per-block measurements the algorithm consumes.
type Inputs struct {
	// BlockLen is the size of the block about to be sent.
	BlockLen int
	// SendTime is the predicted time to send the block uncompressed, from
	// the end-to-end monitor. Zero means "no measurement yet" — the paper's
	// first-block convention (reducing speed assumed infinite), which sends
	// uncompressed.
	SendTime time.Duration
	// ProbeRatio is the 4 KB Lempel-Ziv probe's compressed fraction
	// (CompressedLen/SampleLen).
	ProbeRatio float64
	// ReducingSpeed is the probe's observed bytes-of-reduction per second;
	// zero means the probe could not shrink the sample.
	ReducingSpeed float64
	// Entropy is the probe sample's order-0 entropy in bits/byte and
	// Repetition its 4-gram repeat fraction — the Figure 6 data
	// characteristics consumed by CharacteristicPolicy (the published
	// RatioPolicy ignores them).
	Entropy    float64
	Repetition float64
	// ProbeTime is how long the sampling probe took (wall time on the
	// probing goroutine). It never influences selection — it exists so the
	// tracing layer can attribute probe cost on sampled blocks without a
	// second timestamp plumbing path.
	ProbeTime time.Duration
	// ProbeAge is how many blocks ago the probe fields above were measured:
	// 0 means on this very block. The engine reuses a measurement (ProbeAge
	// > 0, ProbeTime 0) only while the line outruns Lempel-Ziv by a margin
	// no sample could close — see Policy for what a policy may then assume.
	ProbeAge int
}

// LZReduceTime predicts how long Lempel-Ziv needs to reduce the block: the
// expected byte reduction (extrapolated from the probe ratio) divided by the
// observed reducing speed. It returns 0 when no reduction is expected —
// "infinite speed" in the paper's first-block sense never helps compression,
// and an incompressible probe means there is nothing to reduce.
func (in Inputs) LZReduceTime() time.Duration {
	if in.ReducingSpeed <= 0 || in.ProbeRatio >= 1 {
		return 0
	}
	expectedReduction := float64(in.BlockLen) * (1 - in.ProbeRatio)
	return time.Duration(expectedReduction / in.ReducingSpeed * float64(time.Second))
}

// Decision records a selection and the reasoning inputs, for the audit
// trails the experiments plot (Figures 8 and 11) and the decide spans the
// debug plane serves over /debug/spans.
type Decision struct {
	Method       codec.Method
	Inputs       Inputs
	LZReduceTime time.Duration
	// Placement says where this block's compression runs (the zero value,
	// publisher, is inline compression at the deciding node).
	Placement Placement
	// Offloaded marks a block the deciding node ships raw because a
	// downstream hop owns compression under Placement; Method is then None
	// regardless of what the method selector would have chosen.
	Offloaded bool
	// Demoted marks a decision the engine stepped down the method ladder
	// after selection because the overload governor capped CPU spend;
	// DemotedFrom is what the policy originally chose and DemoteCause the
	// governor's one-word justification (e.g. "cpu elevated"). The selector
	// never sets these — they exist so Reason() and the decide spans show
	// governed decisions honestly.
	Demoted     bool
	DemotedFrom codec.Method
	DemoteCause string
}

// Reason summarizes in one line why the decision came out the way it did,
// in terms of the §2.5 comparisons: which branch fired and the send/reduce
// ratio that drove it. The string is stable enough for decide spans but
// not a parseable format.
func (d Decision) Reason() string {
	base := d.baseReason()
	if age := d.Inputs.ProbeAge; age > 0 {
		base = fmt.Sprintf("%s; probe reused, age %d", base, age)
	}
	if d.Demoted {
		return fmt.Sprintf("%s; governor demoted %s->%s (%s)",
			base, d.DemotedFrom, d.Method, d.DemoteCause)
	}
	return base
}

func (d Decision) baseReason() string {
	in := d.Inputs
	if d.Offloaded {
		if ratio, ok := offloadRatio(in, d.LZReduceTime); ok {
			return fmt.Sprintf("placement %s: link outruns codec (send/reduce %.2f): ship raw", d.Placement, ratio)
		}
		return fmt.Sprintf("placement %s: compression offloaded downstream: ship raw", d.Placement)
	}
	switch {
	case in.SendTime <= 0 || in.BlockLen == 0:
		return "no goodput measurement yet: send raw"
	case d.LZReduceTime <= 0:
		return "probe found block incompressible: send raw"
	}
	ratio := float64(in.SendTime) / float64(d.LZReduceTime)
	chosen := d.Method
	if d.Demoted {
		chosen = d.DemotedFrom // the branch that actually fired in Select
	}
	switch chosen {
	case codec.None:
		return fmt.Sprintf("line fast: send/reduce %.2f below threshold", ratio)
	case codec.Huffman:
		return fmt.Sprintf("line slow (send/reduce %.2f) but probe ratio %.2f above cutoff: entropy coding", ratio, in.ProbeRatio)
	case codec.BurrowsWheeler:
		return fmt.Sprintf("line very slow (send/reduce %.2f), probe ratio %.2f: strongest method", ratio, in.ProbeRatio)
	case codec.LempelZiv:
		return fmt.Sprintf("line slow (send/reduce %.2f), probe ratio %.2f: dictionary coding", ratio, in.ProbeRatio)
	}
	return fmt.Sprintf("custom policy chose %s (send/reduce %.2f)", d.Method, ratio)
}

// Select runs the paper's §2.5 algorithm.
func (c Config) Select(in Inputs) Decision {
	d := Decision{Method: codec.None, Inputs: in, LZReduceTime: in.LZReduceTime()}
	// First block, or no goodput measurement: send raw.
	if in.SendTime <= 0 || in.BlockLen == 0 {
		return d
	}
	reduce := d.LZReduceTime
	if reduce <= 0 {
		// The probe could not shrink the sample at all: the block is
		// effectively incompressible (LZ subsumes an entropy coder for its
		// literals), so spending CPU cannot reduce network time. Send raw.
		return d
	}
	send := float64(in.SendTime)
	if send <= c.SendVsReduce*float64(reduce) {
		return d // line fast enough: don't compress
	}
	if in.ProbeRatio < c.SampleCutoff {
		if send > c.StrongVsReduce*float64(reduce) {
			d.Method = codec.BurrowsWheeler
		} else {
			d.Method = codec.LempelZiv
		}
		return d
	}
	d.Method = codec.Huffman
	return d
}
