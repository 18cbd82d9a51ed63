package main

import (
	"math"
	"sort"

	"ccx/internal/metrics"
	"ccx/internal/stats"
)

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", lowest first.
var tailPercentiles = []float64{0.50, 0.90, 0.95, 0.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is a handful of outliers, not a tail.
const minBeyond = 10

// supportedTail returns the highest candidate percentile that still has at
// least minBeyond of n samples beyond it (0.50 when even that is not met).
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= minBeyond-1e-9 { // 100·(1−0.9) is a hair under 10 in floating point
			best = p
		}
	}
	return best
}

// median is the 50th percentile (0 for an empty sample).
func median(values []float64) float64 { return stats.Percentile(values, 50) }

// tailOf returns the value at percentile p, or at the highest supported
// percentile when the sample is too small for p.
func tailOf(values []float64, p float64) float64 {
	return stats.Percentile(values, 100*math.Min(p, supportedTail(len(values))))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the driver uses to judge spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// histBounds are the buckets of every histogram the harness keeps: 2 % steps
// from 1e-3 to 1e7, which holds microseconds up to ten seconds and
// milliseconds from a microsecond up.
var histBounds = func() []float64 {
	var b []float64
	for v := 1e-3; v < 1e7; v *= 1.02 {
		b = append(b, v)
	}
	return b
}()

// newHist returns an empty histogram over histBounds. Receivers account
// every delivery's latency in one, not in a growing slice: a harness whose
// live heap grew over the run would slow the garbage collector's pace as it
// went, and the system's throughput would drift up with it.
func newHist() *metrics.Histogram { return metrics.NewHistogram(histBounds) }

// mergeHists sums snapshots taken over the same bounds.
func mergeHists(hs ...metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	var out metrics.HistogramSnapshot
	for _, h := range hs {
		if len(out.Counts) == 0 { // nothing yet, or only zero-value snapshots
			out.Bounds, out.Counts = h.Bounds, make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Count += h.Count
		out.Sum += h.Sum
	}
	return out
}

// quantile is h.Quantile(q), 0 for an empty histogram.
func quantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Quantile(q)
}

// countAbove counts the values in buckets entirely above limit.
func countAbove(h metrics.HistogramSnapshot, limit float64) int64 {
	var n int64
	for i := sort.SearchFloat64s(h.Bounds, limit) + 1; i < len(h.Counts); i++ {
		n += h.Counts[i]
	}
	return n
}

// binnedQuantile summarises a run cut into equal time bins: the median
// over bins of each bin's p-quantile, so a disturbance that hits one
// stretch of the run does not decide the result. Bins too small to support
// p (fewer than minBeyond samples beyond it) are merged with their
// neighbours first; when fewer than three supported groups remain, the
// whole run's quantile is reported at the highest percentile it supports.
func binnedQuantile(bins []metrics.HistogramSnapshot, p float64) float64 {
	groups := bins
	for len(groups) >= 6 && !allSupport(groups, p) {
		merged := make([]metrics.HistogramSnapshot, 0, len(groups)/2)
		for i := 0; i+1 < len(groups); i += 2 {
			end := i + 2
			if end+1 == len(groups) { // odd count: the last group takes three
				end++
			}
			merged = append(merged, mergeHists(groups[i:end]...))
		}
		groups = merged
	}
	if len(groups) < 3 || !allSupport(groups, p) {
		all := mergeHists(bins...)
		return quantile(all, math.Min(p, supportedTail(int(all.Count))))
	}
	values := make([]float64, len(groups))
	for i, g := range groups {
		values[i] = quantile(g, p)
	}
	return median(values)
}

func allSupport(groups []metrics.HistogramSnapshot, p float64) bool {
	for _, g := range groups {
		if g.Count == 0 || (p > tailPercentiles[0] && supportedTail(int(g.Count)) < p) {
			return false
		}
	}
	return true
}
