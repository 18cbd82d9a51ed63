package experiments

import "ccx/internal/codec"

// Paper reference values. Figure 1's ratings and Figure 5's numbers are
// printed in the paper; the bar-chart figures (2, 3, 4, 6) publish no
// tables, so those values are digitized by eye from the published charts
// and marked as estimates wherever they are displayed. EXPERIMENTS.md
// records the comparison.

// rating is Figure 1's four-level qualitative scale.
type rating int

// Qualitative ratings, worst to best.
const (
	poor rating = iota + 1
	satisfactory
	good
	excellent
)

// String returns the rating label used in the paper's Figure 1.
func (r rating) String() string {
	switch r {
	case poor:
		return "Poor"
	case satisfactory:
		return "Satisfactory"
	case good:
		return "Good"
	case excellent:
		return "Excellent"
	}
	return "Unknown"
}

// paperFig1 is Figure 1 as published: each method's rating on the paper's
// six dimensions, in the order of its rows — string repetitions, low
// entropy, compression efficiency, time of compression, time of
// decompression, global time.
var paperFig1 = map[codec.Method][6]rating{
	codec.BurrowsWheeler: {excellent, excellent, excellent, poor, satisfactory, poor},
	codec.LempelZiv:      {excellent, poor, good, satisfactory, excellent, good},
	codec.Arithmetic:     {poor, excellent, poor, poor, poor, poor},
	codec.Huffman:        {poor, excellent, poor, excellent, excellent, excellent},
}

// paperFig2Percent is Figure 2: compressed size as percent of original on
// the commercial dataset (chart estimates).
var paperFig2Percent = map[codec.Method]float64{
	codec.BurrowsWheeler: 20,
	codec.LempelZiv:      29,
	codec.Arithmetic:     44,
	codec.Huffman:        47,
}

// paperFig3Seconds is Figure 3: compression/decompression wall times on the
// Sun-Fire for the commercial dataset (chart estimates; dataset size
// unpublished, so only the ordering and ratios are meaningful).
var paperFig3Seconds = map[codec.Method][2]float64{
	codec.BurrowsWheeler: {8.0, 3.2},
	codec.LempelZiv:      {2.6, 0.8},
	codec.Arithmetic:     {5.5, 7.5},
	codec.Huffman:        {1.2, 1.0},
}

// paperFig4ReducingMBs is Figure 4: reducing speed in MB/s on the two Sun
// machines (chart estimates).
var paperFig4ReducingMBs = map[codec.Method][2]float64{ // {Sun-Fire, Ultra-Sparc}
	codec.BurrowsWheeler: {0.55, 0.27},
	codec.LempelZiv:      {2.2, 1.1},
	codec.Arithmetic:     {0.9, 0.45},
	codec.Huffman:        {3.7, 1.85},
}

// paperFig5 is Figure 5: measured link speeds (exact values printed in the
// paper) and their standard deviations.
var paperFig5 = []struct {
	Name   string
	MBs    float64
	StdPct float64
}{
	{"1GBit", 26.32094622, 0.782},
	{"100MBit", 7.520270348, 8.95},
	{"1MBit", 0.146907607, 1.17},
	{"international", 0.10891426, 46.02},
}

// paperFig6Percent is Figure 6: compressed size as percent of original per
// molecular field class (chart estimates; "original" bar = 100).
var paperFig6Percent = map[string]map[codec.Method]float64{
	"type": {
		codec.Huffman:        30,
		codec.Arithmetic:     27,
		codec.LempelZiv:      20,
		codec.BurrowsWheeler: 15,
	},
	"velocity": {
		codec.Huffman:        78,
		codec.Arithmetic:     75,
		codec.LempelZiv:      85,
		codec.BurrowsWheeler: 72,
	},
	"coordinates": {
		codec.Huffman:        95,
		codec.Arithmetic:     93,
		codec.LempelZiv:      98,
		codec.BurrowsWheeler: 91,
	},
}

// Section 5 published totals for the 100 MBit/s variable-load exchange.
const (
	paperCommercialAdaptiveSeconds = 10.7142
	paperCommercialRawSeconds      = 29.1388
	// "compression took slightly more than 60% of total time"
	paperCommercialCompressShare = 0.60
	paperMolecularRawSeconds     = 29.0
	paperMolecularAdaptiveSecs   = 30.5
)

// paperCompressBps charges the adaptive timeline the paper's per-method
// compression throughputs (bytes of input per second, derived from Figures
// 3/4; divided by TimeScale in scaled runs). This substitutes the Sun-Fire's
// CPU behaviour so that the compute/network balance — and therefore both
// the selector's operating point and the reported totals — match the
// paper's testbed rather than whatever modern hardware this runs on.
var paperCompressBps = map[codec.Method]float64{
	codec.BurrowsWheeler: 1.0e6,
	codec.LempelZiv:      3.1e6,
	codec.Arithmetic:     1.45e6,
	codec.Huffman:        6.7e6,
}

// paperLZReducingBps is Figure 4's Sun-Fire Lempel-Ziv reducing speed, the
// calibration target for the engine's sampling probe.
const paperLZReducingBps = 2.2e6
