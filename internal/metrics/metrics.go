// Package metrics is a small expvar-style instrumentation substrate:
// named counters, gauges, EWMAs, and fixed-bucket histograms collected in
// a Registry that can snapshot itself into a flat name→value map, JSON, or
// Prometheus text exposition. The fan-out broker (internal/broker) feeds
// one registry with per-subscriber bytes in/out, compression ratios,
// method histograms, queue depths, and evictions; the adaptive engine
// (internal/core) adds encode/decode latency and block-size distributions;
// cmd/ccbroker and friends expose the snapshot over -debug HTTP
// (internal/obs) or dump it to stderr for operators.
//
// All types are safe for concurrent use and allocation-free on the hot
// paths (counters and gauges are single atomics; histograms are a binary
// search plus atomic adds).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters only
// move forward).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer level (queue depth, subscriber count).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n exceeds the current value — the
// lock-free high-water-mark update (queue-depth peaks and the like).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultEWMAAlpha weights the newest observation when no alpha is given.
const DefaultEWMAAlpha = 0.3

// EWMA is an exponentially weighted moving average of a float series
// (compression ratio, goodput). The first observation seeds the average.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	val   float64
	n     int64
}

// Observe folds x into the average.
func (e *EWMA) Observe(x float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.alpha
	if a <= 0 || a > 1 {
		a = DefaultEWMAAlpha
	}
	if e.n == 0 {
		e.val = x
	} else {
		e.val = a*x + (1-a)*e.val
	}
	e.n++
}

// Value returns the smoothed value (0 before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.val
}

// Kind identifies a metric's type inside a Registry namespace.
type Kind string

// Registry metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindEWMA      Kind = "ewma"
	KindHistogram Kind = "histogram"
)

// Registry owns a flat namespace of metrics. Lookups are get-or-create, so
// instrumented code never checks registration state; the zero name is
// valid. Use dotted names ("sub.3.bytes_out") to build hierarchies.
//
// Names are unique across kinds: requesting an existing name as a
// different kind panics with a descriptive error rather than silently
// shadowing one metric with another in Snapshot output. Metric lookups
// happen at wiring time (session or subscriber setup), so a kind collision
// is a programming error on par with a duplicate flag registration —
// panicking there, like package flag does, surfaces it at the broken call
// site instead of as a mystery in a monitoring dashboard.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]Kind
	counters map[string]*Counter
	gauges   map[string]*Gauge
	ewmas    map[string]*EWMA
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]Kind),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		ewmas:    make(map[string]*EWMA),
		hists:    make(map[string]*Histogram),
	}
}

// claim records name as kind, panicking on a cross-kind collision.
// Callers hold r.mu.
func (r *Registry) claim(name string, kind Kind) {
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, requested as a %s",
			name, prev, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, creating it on first use. It panics
// if name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, KindCounter)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. It panics if
// name is already registered as a different kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, KindGauge)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// EWMA returns the named moving average, creating it with the given alpha
// on first use (alpha is fixed at creation; later calls ignore it). It
// panics if name is already registered as a different kind.
func (r *Registry) EWMA(name string, alpha float64) *EWMA {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, KindEWMA)
	e, ok := r.ewmas[name]
	if !ok {
		e = &EWMA{alpha: alpha}
		r.ewmas[name] = e
	}
	return e
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (bounds are fixed at creation; later calls ignore
// them). It panics if name is already registered as a different kind.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, KindHistogram)
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// View is one metric's point-in-time state in a registry snapshot.
type View struct {
	// Name is the registered metric name.
	Name string
	// Kind says which of the value fields is meaningful.
	Kind Kind
	// Value holds the counter/gauge integer (as float) or the EWMA's
	// smoothed value. Unused for histograms.
	Value float64
	// Hist is the distribution state; set only for KindHistogram.
	Hist HistogramSnapshot
}

// Views returns every metric's state, sorted by name — the typed snapshot
// the Prometheus and debug renderers compose over. The per-metric reads
// happen outside the registry lock, so a view is consistent per metric,
// not across metrics (same as Snapshot).
func (r *Registry) Views() []View {
	r.mu.Lock()
	views := make([]View, 0, len(r.kinds))
	type pending struct {
		view View
		c    *Counter
		g    *Gauge
		e    *EWMA
		h    *Histogram
	}
	ps := make([]pending, 0, len(r.kinds))
	for name, kind := range r.kinds {
		p := pending{view: View{Name: name, Kind: kind}}
		switch kind {
		case KindCounter:
			p.c = r.counters[name]
		case KindGauge:
			p.g = r.gauges[name]
		case KindEWMA:
			p.e = r.ewmas[name]
		case KindHistogram:
			p.h = r.hists[name]
		}
		ps = append(ps, p)
	}
	r.mu.Unlock()
	for _, p := range ps {
		switch {
		case p.c != nil:
			p.view.Value = float64(p.c.Value())
		case p.g != nil:
			p.view.Value = float64(p.g.Value())
		case p.e != nil:
			p.view.Value = p.e.Value()
		case p.h != nil:
			p.view.Hist = p.h.Snapshot()
		}
		views = append(views, p.view)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	return views
}

// Snapshot returns a point-in-time copy of every metric as name→value.
// Counters and gauges appear as their integer values; EWMAs as their
// smoothed float. Histograms flatten into derived keys: "<name>.count",
// "<name>.sum", and estimated "<name>.p50"/"<name>.p99" quantiles (the
// quantile keys are omitted while the histogram is empty).
func (r *Registry) Snapshot() map[string]float64 {
	views := r.Views()
	out := make(map[string]float64, len(views))
	for _, v := range views {
		if v.Kind != KindHistogram {
			out[v.Name] = v.Value
			continue
		}
		out[v.Name+".count"] = float64(v.Hist.Count)
		out[v.Name+".sum"] = v.Hist.Sum
		if v.Hist.Count > 0 {
			out[v.Name+".p50"] = v.Hist.Quantile(0.50)
			out[v.Name+".p99"] = v.Hist.Quantile(0.99)
		}
	}
	return out
}

// WriteJSON renders the snapshot as a single JSON object with sorted keys
// (encoding/json sorts map keys), counters and gauges as integers.
func (r *Registry) WriteJSON(w io.Writer) error {
	flat := make(map[string]any)
	for _, v := range r.Views() {
		switch v.Kind {
		case KindCounter, KindGauge:
			flat[v.Name] = int64(v.Value)
		case KindEWMA:
			flat[v.Name] = v.Value
		case KindHistogram:
			flat[v.Name+".count"] = v.Hist.Count
			flat[v.Name+".sum"] = v.Hist.Sum
			if v.Hist.Count > 0 {
				flat[v.Name+".p50"] = v.Hist.Quantile(0.50)
				flat[v.Name+".p99"] = v.Hist.Quantile(0.99)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(flat)
}
