package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution metric. Buckets are cumulative
// upper bounds (Prometheus-style "le"); an observation lands in the first
// bucket whose bound is >= the value, or in the implicit +Inf overflow
// bucket. Observe is a binary search plus two atomic adds — safe for
// concurrent use and allocation-free, so it can sit on per-block hot paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// Bounds are copied, deduplicated, and sorted, so callers may pass shared
// slices. An empty bounds slice yields a single +Inf bucket (count/sum only).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{
		bounds: uniq,
		counts: make([]atomic.Int64, len(uniq)+1),
	}
}

// Observe folds x into the distribution.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration folds a latency observation in, as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations <= Bounds[i]. Counts has one extra entry, the +Inf bucket.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram state. The per-bucket loads are not a
// single atomic cut, so a snapshot taken mid-Observe may be off by a few
// in-flight observations — fine for monitoring, which is its only consumer.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after NewHistogram
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket where the target rank falls, the standard
// fixed-bucket estimate. It returns NaN for an empty histogram; ranks
// landing in the +Inf bucket report the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var seen int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			if i >= len(s.Bounds) { // +Inf bucket
				if len(s.Bounds) == 0 {
					return math.NaN()
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (rank - float64(seen)) / float64(c)
			return lo + (s.Bounds[i]-lo)*frac
		}
		seen += c
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Swarm metric names, shared between cmd/ccswarm and the manifest golden.
// The harness registers its publish→decode latency histogram on the
// broker's own registry under SwarmLatencyName and computes the report's
// percentiles from that same histogram, so swarm.json and a /metrics
// scrape can never disagree beyond bucket resolution.
const (
	SwarmLatencyName     = "swarm.latency_seconds"
	SwarmSubscribersName = "swarm.subscribers"
	SwarmDeliveredName   = "swarm.delivered_blocks"
)

// Shared bucket layouts for the repo's standard views. Exported so tests
// and renderers agree with instrumented code on the exact bounds.
var (
	// LatencyBuckets covers 10µs..10s exponentially — encode/decode/send
	// latencies in seconds.
	LatencyBuckets = []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
		250e-3, 500e-3, 1, 2.5, 5, 10,
	}
	// SizeBuckets covers 256 B..16 MiB by powers of four — block and frame
	// sizes in bytes (upper end matches codec.MaxFrameLen).
	SizeBuckets = []float64{
		256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20,
	}
	// RatioBuckets covers compressed/original fractions: fine steps below 1
	// where compression pays, one bucket above for expansion fallbacks.
	RatioBuckets = []float64{
		0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1,
	}
)
