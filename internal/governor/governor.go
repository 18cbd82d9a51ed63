// Package governor is the process-wide overload governor: it samples the
// resources a broker daemon actually runs out of — heap against a memory
// budget (GOMEMLIMIT or an explicit cap), aggregate queued/cached bytes
// across replay rings, shared-frame caches, and subscriber queues, and CPU
// saturation via the encode pipeline's head-of-line wait — and publishes a
// hysteresis-smoothed pressure level per dimension plus an overall level.
//
// The paper's premise (§2.5) is that compression adapts to *current
// resources*; the governor extends that from the per-path selection loop to
// the whole process. Consumers react per dimension:
//
//   - CPU pressure constrains the selector's method ladder (BWT→LZ→
//     Huffman→None) through the core.MethodLimiter hook — the engine keeps
//     deciding per path, the governor only caps how expensive the choice
//     may be;
//   - memory pressure shrinks replay rings and frame caches toward floors
//     and makes the broker shed load: refuse new subscriptions with an
//     explicit RETRY-AFTER reply and evict the slowest queues.
//
// Levels rise immediately and fall only after Hold consecutive calm
// samples below the entry threshold by a margin, so a load spike flapping
// around a threshold cannot thrash the degradation machinery. Every
// sample, level, and transition is observable (governor.* gauges/counters,
// pressure-transition anomaly spans, the ccstat "prs" column).
package governor

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/codec"
	"ccx/internal/metrics"
	"ccx/internal/tracing"
)

// Level is a pressure reading: ok, elevated, critical.
type Level int32

const (
	// LevelOK is normal operation: no degradation anywhere.
	LevelOK Level = iota
	// LevelElevated is sustained pressure: degrade what is cheap to degrade
	// (method cap at LZ, caches/rings at half budget).
	LevelElevated
	// LevelCritical is resource exhaustion territory: shed load (refuse new
	// subscribers, evict the slowest), cap methods at Huffman, shrink
	// retention to floors.
	LevelCritical
)

// String renders the level the way ccstat and logs show it.
func (l Level) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelElevated:
		return "elevated"
	case LevelCritical:
		return "critical"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// Defaults for Config zero values.
const (
	DefaultInterval     = 250 * time.Millisecond
	DefaultElevatedFrac = 0.65
	DefaultCriticalFrac = 0.85
	// DefaultDownFrac is the hysteresis margin: a dimension steps down only
	// once its signal sits below threshold*DownFrac for Hold samples.
	DefaultDownFrac    = 0.90
	DefaultHold        = 1
	DefaultCPUElevated = 10 * time.Millisecond
	DefaultCPUCritical = 100 * time.Millisecond
)

// Snapshot is one sample's readings.
type Snapshot struct {
	Level    Level // max of the per-dimension levels
	Mem, CPU Level
	// Heap is the sampled heap allocation, Queued the aggregate
	// queued/cached bytes reported by the QueuedBytes source.
	Heap, Queued int64
	// PipeWait is the decayed pipeline-wait EWMA driving the CPU dimension.
	PipeWait time.Duration
}

// Change describes one overall-level transition.
type Change struct {
	From, To Level
	Snapshot
}

// Config assembles a Governor.
type Config struct {
	// MemBudget is the heap budget in bytes. 0 reads GOMEMLIMIT (via
	// runtime/debug.SetMemoryLimit) and disables the heap dimension when no
	// limit is set; negative disables it unconditionally.
	MemBudget int64
	// BytesBudget bounds the aggregate queued/cached bytes reported by
	// QueuedBytes (replay rings + frame caches + live shared frames).
	// 0 disables the dimension.
	BytesBudget int64
	// ElevatedFrac and CriticalFrac are the budget fractions at which the
	// memory dimensions enter elevated/critical (defaults 0.65/0.85).
	ElevatedFrac, CriticalFrac float64
	// DownFrac scales the entry thresholds for stepping back down
	// (hysteresis band; default 0.90).
	DownFrac float64
	// Hold is how many consecutive calm samples a dimension needs before
	// stepping down a level (default 1: recovery within one interval).
	Hold int
	// CPUElevated and CPUCritical are pipeline-wait EWMA thresholds for the
	// CPU dimension (defaults 10ms/100ms). Pipeline wait is how long
	// finished encodes stall waiting for the in-order sequencer — near zero
	// while the encode pool keeps up, and the first thing to grow when the
	// CPU saturates.
	CPUElevated, CPUCritical time.Duration
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// QueuedBytes reports the process's aggregate queued/cached bytes
	// (nil: the bytes dimension reads 0).
	QueuedBytes func() int64
	// HeapBytes overrides the heap source, for tests (nil: runtime
	// MemStats.HeapAlloc).
	HeapBytes func() int64
	// Metrics receives governor.* gauges and counters (nil = private).
	Metrics *metrics.Registry
	// Tracer records pressure-transition anomaly spans. nil disables.
	Tracer *tracing.Tracer
	// OnChange fires on every overall-level transition, OnSample after
	// every sample, both on the sampling goroutine (or inside SampleNow).
	// Keep them non-blocking.
	OnChange func(Change)
	OnSample func(Snapshot)
	// Logf logs transitions (nil = silent).
	Logf func(format string, args ...any)
}

// dimension is one pressure signal's smoothed state.
type dimension struct {
	level Level
	calm  int // consecutive samples clear of the current level's band
}

// Governor samples resource pressure and publishes levels. Create with
// New; Level/Memory/CPU/MethodCap are safe from any goroutine.
type Governor struct {
	cfg       Config
	memBudget int64 // resolved heap budget (0 = dimension off)

	level atomic.Int32 // overall
	mem   atomic.Int32
	cpu   atomic.Int32

	pw pipeWait

	// smu serializes samples (ticker vs SampleNow in tests).
	smu      sync.Mutex
	memDim   dimension
	cpuDim   dimension
	lastSnap Snapshot

	levelG    *metrics.Gauge
	memG      *metrics.Gauge
	cpuG      *metrics.Gauge
	heapG     *metrics.Gauge
	queuedG   *metrics.Gauge
	pipeWaitG *metrics.Gauge
	samples   *metrics.Counter
	trans     *metrics.Counter
	demoted   *metrics.Counter
	shedSubs  *metrics.Counter
	shedEvict *metrics.Counter
	breaker   *metrics.Counter

	startMu sync.Mutex
	done    chan struct{}
	wg      sync.WaitGroup
}

// New resolves cfg and builds a Governor (not yet sampling — call Start,
// or drive SampleNow directly in tests).
func New(cfg Config) *Governor {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.ElevatedFrac <= 0 {
		cfg.ElevatedFrac = DefaultElevatedFrac
	}
	if cfg.CriticalFrac <= 0 {
		cfg.CriticalFrac = DefaultCriticalFrac
	}
	if cfg.DownFrac <= 0 || cfg.DownFrac >= 1 {
		cfg.DownFrac = DefaultDownFrac
	}
	if cfg.Hold <= 0 {
		cfg.Hold = DefaultHold
	}
	if cfg.CPUElevated <= 0 {
		cfg.CPUElevated = DefaultCPUElevated
	}
	if cfg.CPUCritical <= 0 {
		cfg.CPUCritical = DefaultCPUCritical
	}
	if cfg.HeapBytes == nil {
		cfg.HeapBytes = heapAlloc
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewRegistry()
	}
	g := &Governor{
		cfg:       cfg,
		memBudget: resolveMemBudget(cfg.MemBudget),

		levelG:    met.Gauge("governor.level"),
		memG:      met.Gauge("governor.mem_level"),
		cpuG:      met.Gauge("governor.cpu_level"),
		heapG:     met.Gauge("governor.heap_bytes"),
		queuedG:   met.Gauge("governor.queued_bytes"),
		pipeWaitG: met.Gauge("governor.pipe_wait_ns"),
		samples:   met.Counter("governor.samples"),
		trans:     met.Counter("governor.transitions"),
		demoted:   met.Counter("governor.demoted_blocks"),
		shedSubs:  met.Counter("governor.shed_subscribes"),
		shedEvict: met.Counter("governor.shed_evictions"),
		breaker:   met.Counter("governor.breaker_trips"),
	}
	met.Gauge("governor.mem_budget_bytes").Set(g.memBudget)
	met.Gauge("governor.bytes_budget_bytes").Set(cfg.BytesBudget)
	return g
}

// resolveMemBudget turns the configured budget into an effective one:
// explicit positive wins, 0 falls back to GOMEMLIMIT, negative (or no
// GOMEMLIMIT) disables the heap dimension.
func resolveMemBudget(configured int64) int64 {
	if configured > 0 {
		return configured
	}
	if configured < 0 {
		return 0
	}
	// SetMemoryLimit with a negative input reports the current limit
	// without changing it; math.MaxInt64 means "no limit configured".
	if lim := debug.SetMemoryLimit(-1); lim > 0 && lim < math.MaxInt64 {
		return lim
	}
	return 0
}

// heapAlloc is the default heap source. ReadMemStats stops the world for
// microseconds; at the default 250ms interval that is noise.
func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Start launches the sampling loop. Stop undoes it; Start after Stop
// restarts.
func (g *Governor) Start() {
	g.startMu.Lock()
	defer g.startMu.Unlock()
	if g.done != nil {
		return
	}
	done := make(chan struct{})
	g.done = done
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				g.SampleNow()
			}
		}
	}()
}

// Stop halts the sampling loop and waits for it to exit.
func (g *Governor) Stop() {
	g.startMu.Lock()
	done := g.done
	g.done = nil
	g.startMu.Unlock()
	if done == nil {
		return
	}
	close(done)
	g.wg.Wait()
}

// Interval returns the effective sampling period.
func (g *Governor) Interval() time.Duration { return g.cfg.Interval }

// Level returns the overall pressure level (max across dimensions).
func (g *Governor) Level() Level { return Level(g.level.Load()) }

// Memory returns the memory dimension's level (worst of heap-vs-budget
// and queued-bytes-vs-budget).
func (g *Governor) Memory() Level { return Level(g.mem.Load()) }

// CPU returns the CPU dimension's level (pipeline-wait EWMA).
func (g *Governor) CPU() Level { return Level(g.cpu.Load()) }

// NotePipeWait feeds one block's pipeline head-of-line wait into the CPU
// signal. Call it from encode sequencers; it is cheap and concurrent-safe.
func (g *Governor) NotePipeWait(d time.Duration) { g.pw.note(d) }

// MethodCap returns the heaviest compression method currently permitted:
// ok caps nothing, elevated caps at Lempel-Ziv (demoting BWT), critical
// caps at Huffman. The bool reports whether a cap is in force.
func (g *Governor) MethodCap() (codec.Method, bool) {
	switch g.CPU() {
	case LevelElevated:
		return codec.LempelZiv, true
	case LevelCritical:
		return codec.Huffman, true
	}
	return codec.None, false
}

// CapMethod implements core.MethodLimiter against the CPU dimension.
func (g *Governor) CapMethod() (codec.Method, string, bool) {
	m, ok := g.MethodCap()
	if !ok {
		return 0, "", false
	}
	return m, "cpu " + g.CPU().String(), true
}

// NoteDemoted implements core.MethodLimiter: one block's selection was
// demoted down the ladder under the current cap.
func (g *Governor) NoteDemoted(from, to codec.Method) { g.demoted.Inc() }

// NoteShedSubscribe counts one subscription refused by admission control.
func (g *Governor) NoteShedSubscribe() { g.shedSubs.Inc() }

// NoteShedEviction counts one subscriber evicted to relieve pressure.
func (g *Governor) NoteShedEviction() { g.shedEvict.Inc() }

// NoteBreakerTrip counts one slow-subscriber circuit-breaker trip.
func (g *Governor) NoteBreakerTrip() { g.breaker.Inc() }

// Demoted reports how many block selections were demoted so far.
func (g *Governor) Demoted() int64 { return g.demoted.Value() }

// SampleNow takes one synchronous sample, updates levels/metrics, and
// fires hooks. The ticker calls it; tests call it directly for
// deterministic stepping.
func (g *Governor) SampleNow() Snapshot {
	g.smu.Lock()
	defer g.smu.Unlock()

	snap := Snapshot{
		Heap:     g.cfg.HeapBytes(),
		PipeWait: g.pw.tick(),
	}
	if g.cfg.QueuedBytes != nil {
		snap.Queued = g.cfg.QueuedBytes()
	}

	// Memory: the worst of heap-vs-budget and queued-bytes-vs-budget, each
	// with the same fractional thresholds.
	memSig := 0.0
	if g.memBudget > 0 {
		memSig = float64(snap.Heap) / float64(g.memBudget)
	}
	if g.cfg.BytesBudget > 0 {
		if s := float64(snap.Queued) / float64(g.cfg.BytesBudget); s > memSig {
			memSig = s
		}
	}
	snap.Mem = g.step(&g.memDim, memSig, g.cfg.ElevatedFrac, g.cfg.CriticalFrac)
	snap.CPU = g.step(&g.cpuDim, float64(snap.PipeWait),
		float64(g.cfg.CPUElevated), float64(g.cfg.CPUCritical))
	snap.Level = snap.Mem
	if snap.CPU > snap.Level {
		snap.Level = snap.CPU
	}

	prev := Level(g.level.Load())
	g.mem.Store(int32(snap.Mem))
	g.cpu.Store(int32(snap.CPU))
	g.level.Store(int32(snap.Level))

	g.heapG.Set(snap.Heap)
	g.queuedG.Set(snap.Queued)
	g.pipeWaitG.Set(int64(snap.PipeWait))
	g.memG.Set(int64(snap.Mem))
	g.cpuG.Set(int64(snap.CPU))
	g.levelG.Set(int64(snap.Level))
	g.samples.Inc()
	g.lastSnap = snap

	if snap.Level != prev {
		g.trans.Inc()
		g.cfg.Logf("governor: pressure %s -> %s (heap=%d queued=%d pipewait=%v mem=%s cpu=%s)",
			prev, snap.Level, snap.Heap, snap.Queued, snap.PipeWait, snap.Mem, snap.CPU)
		// Pressure transitions are always-on traced anomalies: they are the
		// moments degradation machinery engages or releases.
		g.cfg.Tracer.Record(tracing.Span{
			Stream:  "governor",
			Stage:   tracing.StagePressure,
			Start:   time.Now().UnixNano(),
			Bytes:   int(snap.Queued),
			Err:     fmt.Sprintf("%s -> %s (mem %s, cpu %s)", prev, snap.Level, snap.Mem, snap.CPU),
			Anomaly: snap.Level > LevelOK,
		})
		if g.cfg.OnChange != nil {
			g.cfg.OnChange(Change{From: prev, To: snap.Level, Snapshot: snap})
		}
	}
	if g.cfg.OnSample != nil {
		g.cfg.OnSample(snap)
	}
	return snap
}

// step advances one dimension: the level rises the moment the signal
// crosses an entry threshold, and falls only after Hold consecutive
// samples with the signal clear of the band (below threshold*DownFrac) —
// the hysteresis that keeps a flapping signal from thrashing consumers.
func (g *Governor) step(d *dimension, sig, elevated, critical float64) Level {
	target := LevelOK
	switch {
	case sig >= critical:
		target = LevelCritical
	case sig >= elevated:
		target = LevelElevated
	}
	if target >= d.level {
		d.level, d.calm = target, 0
		return d.level
	}
	// Candidate step-down with the margin applied.
	down := LevelOK
	switch {
	case sig >= critical*g.cfg.DownFrac:
		down = LevelCritical
	case sig >= elevated*g.cfg.DownFrac:
		down = LevelElevated
	}
	if down >= d.level {
		d.calm = 0 // inside the hysteresis band: hold the level
		return d.level
	}
	d.calm++
	if d.calm >= g.cfg.Hold {
		d.level, d.calm = down, 0
	}
	return d.level
}

// pipeWait is the CPU signal: an EWMA of pipeline head-of-line waits that
// decays toward zero on samples with no observations — a saturated pool
// that went idle must read as recovered, not stuck at its last agony.
type pipeWait struct {
	mu   sync.Mutex
	val  float64 // nanoseconds
	init bool
	seen bool // observation since the last tick
}

func (w *pipeWait) note(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.mu.Lock()
	if !w.init {
		w.val, w.init = float64(d), true
	} else {
		w.val = 0.2*float64(d) + 0.8*w.val
	}
	w.seen = true
	w.mu.Unlock()
}

// tick returns the current EWMA, halving it first when no observation
// arrived since the previous tick (idle decay).
func (w *pipeWait) tick() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.seen {
		w.val *= 0.5
		if w.val < float64(time.Microsecond) {
			w.val = 0
		}
	}
	w.seen = false
	return time.Duration(w.val)
}
