package selector

import "ccx/internal/codec"

// Policy selects a compression method from per-block measurements. The
// published §2.5 algorithm is RatioPolicy; CharacteristicPolicy implements
// the refinement §4.1 sketches after Figure 6 — sampling "to detect whether
// data has low entropy, string repetitions, or both" and choosing by those
// characteristics. Policies are pluggable into the engine so deployments
// (and our ablations) can compare them.
//
// What Select may assume about Inputs: BlockLen and SendTime always describe
// the block being decided. ProbeRatio, ReducingSpeed, Entropy and Repetition
// describe that block's own sample when ProbeAge is 0. While the predicted
// send time is several times below what the fastest Lempel-Ziv probe seen so
// far predicts for reducing the block, core.Engine skips the measurement and
// passes the sample fields of an earlier block (ProbeAge says how many
// blocks earlier, ProbeTime is 0): a policy that weighs send time against
// the probe's reduce time answers "none" from either sample, so nothing is
// lost.
// The engine cannot tell that from the outside — a policy wrapped for timing
// or logging has another concrete type — so every policy gets remembered
// samples on such a line unless it implements PerBlockSampler, and a wrapper
// around one that does must forward the method.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Select picks a method for one block.
	Select(Inputs) Decision
}

// PerBlockSampler is the optional interface of a Policy whose choice depends
// on each block's own sample even when the line outruns the codec (it reads
// Entropy or Repetition, or keys on the sample alone). When SamplesEveryBlock
// reports true the engine probes every block and ProbeAge is always 0.
type PerBlockSampler interface {
	SamplesEveryBlock() bool
}

// RatioPolicy is the paper's published decision algorithm: the 4 KB probe's
// compression ratio gates the dictionary branch.
type RatioPolicy struct {
	Config Config
}

var _ Policy = RatioPolicy{}

// Name implements Policy.
func (RatioPolicy) Name() string { return "ratio" }

// Select implements Policy.
func (p RatioPolicy) Select(in Inputs) Decision {
	return p.Config.Select(in)
}

// Characteristic thresholds, from the Figure 6 discussion: "Huffman codes
// and Arithmetic codes are suitable for low entropy data, while Lempel-Ziv
// methods are good at handling data with string repetitions.
// Burrows-Wheeler handles both".
const (
	// RepetitionCutoff is the 4-gram repeat fraction above which data
	// counts as string-repetitive.
	RepetitionCutoff = 0.5
	// LowEntropyBits is the order-0 entropy (bits/byte) below which data
	// counts as low-entropy.
	LowEntropyBits = 6.0
)

// CharacteristicPolicy chooses the method family from the probe's entropy
// and repetition measurements, then applies the same cost gates as the
// published algorithm within the family.
type CharacteristicPolicy struct {
	Config Config
}

var (
	_ Policy          = CharacteristicPolicy{}
	_ PerBlockSampler = CharacteristicPolicy{}
)

// Name implements Policy.
func (CharacteristicPolicy) Name() string { return "characteristic" }

// SamplesEveryBlock implements PerBlockSampler: the low-entropy branch
// weighs send time against an entropy-derived estimate, not the Lempel-Ziv
// reduce time the engine's fast-line test is built on.
func (CharacteristicPolicy) SamplesEveryBlock() bool { return true }

// Select implements Policy.
func (p CharacteristicPolicy) Select(in Inputs) Decision {
	c := p.Config
	d := Decision{Method: codec.None, Inputs: in, LZReduceTime: in.LZReduceTime()}
	if in.SendTime <= 0 || in.BlockLen == 0 {
		return d
	}
	repetitive := in.Repetition >= RepetitionCutoff
	lowEntropy := in.Entropy > 0 && in.Entropy <= LowEntropyBits
	send := float64(in.SendTime)

	if repetitive {
		reduce := d.LZReduceTime
		if reduce <= 0 || send <= c.SendVsReduce*float64(reduce) {
			return d
		}
		if send > c.StrongVsReduce*float64(reduce) {
			d.Method = codec.BurrowsWheeler
		} else {
			d.Method = codec.LempelZiv
		}
		return d
	}
	if lowEntropy {
		// Estimate Huffman's achievable reduction from entropy: an order-0
		// coder approaches Entropy/8 of the original size. Gate it with the
		// same pays-for-itself test, reusing the probe's reducing speed as
		// the CPU capability signal (Huffman reduces faster than LZ, so
		// this is conservative).
		expectedRatio := in.Entropy / 8
		if expectedRatio >= 1 {
			return d
		}
		reduction := float64(in.BlockLen) * (1 - expectedRatio)
		if in.ReducingSpeed <= 0 {
			// No LZ reduction measured (no string repeats) — entropy coding
			// may still pay; require the line to be slower than the block's
			// worth of estimated coding work at the paper's Huffman/LZ
			// speed ratio (~1.7x from Figure 4).
			return d
		}
		huffSpeed := in.ReducingSpeed * 1.7
		reduceTime := reduction / huffSpeed // seconds
		if send/1e9 > c.SendVsReduce*reduceTime {
			d.Method = codec.Huffman
		}
		return d
	}
	return d
}
