// Package netsim simulates the paper's four communication environments
// (Figure 5): a 1 GBit/s intranet link, a 100 MBit/s intranet link, a
// 1 MBit/s line, and the international Internet path between Georgia Tech
// and Bar-Ilan University. Links are modelled by mean transfer rate,
// propagation latency, multiplicative Gaussian rate jitter matched to the
// paper's measured standard deviations, and a pluggable background-load
// function (driven by MBone traces in §4.2).
//
// Experiments run on a virtual clock: transferring a block advances
// simulated time by the computed duration, so a 160-second scenario
// finishes in microseconds of wall time and is fully reproducible.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Clock supplies the current time. The production engine uses the real
// clock; experiments use a Virtual clock.
type Clock interface {
	Now() time.Time
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Virtual is a manually advanced clock, safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock starting at the Unix epoch.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Unix(0, 0)}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d (negative d is ignored).
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// Elapsed reports time since the epoch start.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now.Sub(time.Unix(0, 0))
}

// Profile describes a link class.
type Profile struct {
	// Name labels the link in reports.
	Name string
	// RateBps is the mean end-to-end transfer rate in bytes per second, as
	// measured on a warm, unloaded line.
	RateBps float64
	// JitterFrac is the relative standard deviation of the rate (the
	// paper's Figure 5 stddev percentages).
	JitterFrac float64
	// Latency is the per-block propagation delay.
	Latency time.Duration
}

// The paper's measured link profiles (Figure 5). Rates are the reported
// MBytes/s converted to bytes/s; stddevs are the reported percentages.
var (
	// Gigabit is the 1 GBit/s intranet link: 26.32094622 MB/s ± 0.782 %.
	Gigabit = Profile{Name: "1GBit", RateBps: 26.32094622 * 1e6, JitterFrac: 0.00782, Latency: 100 * time.Microsecond}
	// Fast100 is the 100 MBit/s intranet link: 7.520270348 MB/s ± 8.95 %.
	Fast100 = Profile{Name: "100MBit", RateBps: 7.520270348 * 1e6, JitterFrac: 0.0895, Latency: 200 * time.Microsecond}
	// Slow1M is the 1 MBit/s line: 0.146907607 MB/s ± 1.17 %.
	Slow1M = Profile{Name: "1MBit", RateBps: 0.146907607 * 1e6, JitterFrac: 0.0117, Latency: 5 * time.Millisecond}
	// International is the Georgia Tech ↔ Bar-Ilan Internet path:
	// 0.10891426 MB/s ± 46.02 %.
	International = Profile{Name: "international", RateBps: 0.10891426 * 1e6, JitterFrac: 0.4602, Latency: 150 * time.Millisecond}
)

// Profiles lists the paper's four links in Figure 5 order.
func Profiles() []Profile {
	return []Profile{Gigabit, Fast100, Slow1M, International}
}

// LoadFunc reports the fraction of link capacity consumed by background
// traffic at time t, in [0,1).
type LoadFunc func(t time.Time) float64

// Link is a simulated unidirectional data path.
type Link struct {
	prof  Profile
	clock Clock
	rng   *rand.Rand
	mu    sync.Mutex
	load  LoadFunc
	// stats
	bytesSent   int64
	blocksSent  int64
	busy        time.Duration
	minGoodput  float64
	maxGoodput  float64
	sumGoodput  float64
	sumGoodput2 float64
}

// NewLink creates a link with the given profile and jitter seed, on the
// given clock (Virtual for experiments, RealClock for live shaping).
func NewLink(p Profile, clock Clock, seed int64) *Link {
	if clock == nil {
		clock = RealClock{}
	}
	return &Link{prof: p, clock: clock, rng: rand.New(rand.NewSource(seed))}
}

// Profile returns the link's profile.
func (l *Link) Profile() Profile { return l.prof }

// SetLoad installs a background-load function (nil clears it).
func (l *Link) SetLoad(fn LoadFunc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.load = fn
}

// available returns the instantaneous available rate in bytes/s at t,
// after background load and jitter. It is always positive.
func (l *Link) available(t time.Time) float64 {
	loadFrac := 0.0
	if l.load != nil {
		loadFrac = l.load(t)
		if loadFrac < 0 {
			loadFrac = 0
		}
		if loadFrac > 0.99 {
			loadFrac = 0.99
		}
	}
	jitter := 1 + l.rng.NormFloat64()*l.prof.JitterFrac
	if jitter < 0.02 {
		jitter = 0.02
	}
	return l.prof.RateBps * (1 - loadFrac) * jitter
}

// TransferTime computes (and records) the time to push n bytes through the
// link at the clock's current moment: latency plus serialization at the
// currently available rate.
func (l *Link) TransferTime(n int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.clock.Now()
	rate := l.available(t)
	d := l.prof.Latency + time.Duration(float64(n)/rate*float64(time.Second))
	goodput := 0.0
	if d > 0 {
		goodput = float64(n) / d.Seconds()
	}
	l.bytesSent += int64(n)
	l.blocksSent++
	l.busy += d
	if l.blocksSent == 1 || goodput < l.minGoodput {
		l.minGoodput = goodput
	}
	if goodput > l.maxGoodput {
		l.maxGoodput = goodput
	}
	l.sumGoodput += goodput
	l.sumGoodput2 += goodput * goodput
	return d
}

// Send models a blocking send of n bytes: it computes the transfer time and,
// when the link runs on a Virtual clock, advances it.
func (l *Link) Send(n int) time.Duration {
	d := l.TransferTime(n)
	if v, ok := l.clock.(*Virtual); ok {
		v.Advance(d)
	}
	return d
}

// Stats summarizes observed link behaviour.
type Stats struct {
	Blocks      int64
	Bytes       int64
	Busy        time.Duration
	MeanGoodput float64 // bytes/s
	StdGoodput  float64 // bytes/s
	MinGoodput  float64
	MaxGoodput  float64
}

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Blocks: l.blocksSent, Bytes: l.bytesSent, Busy: l.busy,
		MinGoodput: l.minGoodput, MaxGoodput: l.maxGoodput,
	}
	if l.blocksSent > 0 {
		n := float64(l.blocksSent)
		s.MeanGoodput = l.sumGoodput / n
		varr := l.sumGoodput2/n - s.MeanGoodput*s.MeanGoodput
		if varr > 0 {
			s.StdGoodput = math.Sqrt(varr)
		}
	}
	return s
}

// String renders the profile compactly.
func (p Profile) String() string {
	return fmt.Sprintf("%s (%.3f MB/s ±%.2f%%)", p.Name, p.RateBps/1e6, p.JitterFrac*100)
}
