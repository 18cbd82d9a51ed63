package governor

import (
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/metrics"
	"ccx/internal/testx"
	"ccx/internal/tracing"
)

// fakeSource is an adjustable byte source for deterministic sampling.
type fakeSource struct{ v int64 }

func (f *fakeSource) get() int64 { return f.v }

func newTestGov(t *testing.T, heap, queued *fakeSource, cfg Config) *Governor {
	t.Helper()
	if heap != nil {
		cfg.HeapBytes = heap.get
	} else {
		cfg.HeapBytes = func() int64 { return 0 }
	}
	if queued != nil {
		cfg.QueuedBytes = queued.get
	}
	return New(cfg)
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelOK: "ok", LevelElevated: "elevated", LevelCritical: "critical", Level(7): "level(7)"} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func TestMemoryLevelsAndHysteresis(t *testing.T) {
	heap := &fakeSource{}
	g := newTestGov(t, heap, nil, Config{MemBudget: 1000, Hold: 2})

	heap.v = 100
	if s := g.SampleNow(); s.Level != LevelOK {
		t.Fatalf("10%% of budget: level %v, want ok", s.Level)
	}
	heap.v = 700 // >= 0.65
	if s := g.SampleNow(); s.Mem != LevelElevated || s.Level != LevelElevated {
		t.Fatalf("70%% of budget: level %v, want elevated", s.Level)
	}
	heap.v = 900 // >= 0.85
	if s := g.SampleNow(); s.Mem != LevelCritical {
		t.Fatalf("90%% of budget: level %v, want critical", s.Mem)
	}

	// Inside the hysteresis band (>= 0.85*0.90 = 765): hold critical forever.
	heap.v = 800
	for i := 0; i < 5; i++ {
		if s := g.SampleNow(); s.Mem != LevelCritical {
			t.Fatalf("sample %d inside band: level %v, want critical held", i, s.Mem)
		}
	}

	// Clear of the critical band but inside elevated: needs Hold=2 samples.
	heap.v = 700
	if s := g.SampleNow(); s.Mem != LevelCritical {
		t.Fatalf("first calm sample: level %v, want critical (hold)", s.Mem)
	}
	if s := g.SampleNow(); s.Mem != LevelElevated {
		t.Fatalf("second calm sample: level %v, want elevated", s.Mem)
	}

	// Drop to nothing: two more samples to reach ok.
	heap.v = 0
	g.SampleNow()
	if s := g.SampleNow(); s.Mem != LevelOK {
		t.Fatalf("after drain: level %v, want ok", s.Mem)
	}
}

func TestQueuedBytesDimension(t *testing.T) {
	queued := &fakeSource{}
	g := newTestGov(t, nil, queued, Config{MemBudget: -1, BytesBudget: 1 << 20})

	queued.v = 1 << 19
	if s := g.SampleNow(); s.Level != LevelOK {
		t.Fatalf("half budget: %v, want ok", s.Level)
	}
	queued.v = (1 << 20) + 1
	s := g.SampleNow()
	if s.Mem != LevelCritical {
		t.Fatalf("past budget: mem %v, want critical", s.Mem)
	}
	if g.Memory() != LevelCritical || g.Level() != LevelCritical {
		t.Fatalf("getters: mem %v level %v, want critical", g.Memory(), g.Level())
	}
	// With Hold=1, one quiet sample steps down one level per sample.
	queued.v = 0
	g.SampleNow()
	if s := g.SampleNow(); s.Level != LevelOK {
		t.Fatalf("recovery: %v, want ok within two samples", s.Level)
	}
}

func TestCPUPressureAndMethodCap(t *testing.T) {
	g := newTestGov(t, nil, nil, Config{MemBudget: -1})

	if _, ok := g.MethodCap(); ok {
		t.Fatal("idle governor should not cap methods")
	}

	// Sustained ~50ms pipeline waits: elevated (>=10ms, <100ms).
	for i := 0; i < 8; i++ {
		g.NotePipeWait(50 * time.Millisecond)
	}
	if s := g.SampleNow(); s.CPU != LevelElevated {
		t.Fatalf("50ms EWMA: cpu %v, want elevated", s.CPU)
	}
	if m, ok := g.MethodCap(); !ok || m != codec.LempelZiv {
		t.Fatalf("elevated cap = %v,%v, want lz,true", m, ok)
	}
	if m, cause, ok := g.CapMethod(); !ok || m != codec.LempelZiv || cause != "cpu elevated" {
		t.Fatalf("CapMethod = %v,%q,%v", m, cause, ok)
	}

	// Saturation: 300ms waits push the EWMA past critical.
	for i := 0; i < 16; i++ {
		g.NotePipeWait(300 * time.Millisecond)
	}
	if s := g.SampleNow(); s.CPU != LevelCritical {
		t.Fatalf("300ms EWMA: cpu %v, want critical", s.CPU)
	}
	if m, ok := g.MethodCap(); !ok || m != codec.Huffman {
		t.Fatalf("critical cap = %v,%v, want huffman,true", m, ok)
	}

	// Idle decay: no observations → EWMA halves each tick and the level
	// steps back down without any NotePipeWait call.
	for i := 0; i < 40 && g.CPU() != LevelOK; i++ {
		g.SampleNow()
	}
	if g.CPU() != LevelOK {
		t.Fatalf("cpu stuck at %v after idle decay", g.CPU())
	}
	if _, ok := g.MethodCap(); ok {
		t.Fatal("recovered governor must not cap methods")
	}
}

func TestTransitionsMetricsAndSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := tracing.New("test", 0, 64)
	heap := &fakeSource{}
	var changes []Change
	g := newTestGov(t, heap, nil, Config{
		MemBudget: 1000,
		Metrics:   reg,
		Tracer:    tr,
		OnChange:  func(c Change) { changes = append(changes, c) },
	})

	heap.v = 900
	g.SampleNow()
	heap.v = 0
	g.SampleNow()
	g.SampleNow() // critical → elevated → ok with Hold=1... two down-steps
	g.SampleNow()

	snap := reg.Snapshot()
	if snap["governor.transitions"] < 2 {
		t.Fatalf("transitions = %v, want >= 2 (up and back down)", snap["governor.transitions"])
	}
	if snap["governor.samples"] != 4 {
		t.Fatalf("samples = %v, want 4", snap["governor.samples"])
	}
	if snap["governor.mem_budget_bytes"] != 1000 {
		t.Fatalf("mem_budget gauge = %v", snap["governor.mem_budget_bytes"])
	}
	if len(changes) < 2 || changes[0].To != LevelCritical {
		t.Fatalf("OnChange sequence = %+v", changes)
	}

	var pressure, anomalies int
	for _, s := range tr.Ring().Recent(0) {
		if s.Stage == tracing.StagePressure {
			pressure++
			if s.Anomaly {
				anomalies++
			}
		}
	}
	if pressure < 2 || anomalies < 1 {
		t.Fatalf("pressure spans = %d (anomalies %d), want >=2 with >=1 anomaly", pressure, anomalies)
	}
}

func TestNoteCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	g := newTestGov(t, nil, nil, Config{MemBudget: -1, Metrics: reg})
	g.NoteDemoted(codec.BurrowsWheeler, codec.LempelZiv)
	g.NoteDemoted(codec.LempelZiv, codec.Huffman)
	g.NoteShedSubscribe()
	g.NoteShedEviction()
	g.NoteBreakerTrip()
	snap := reg.Snapshot()
	if snap["governor.demoted_blocks"] != 2 || g.Demoted() != 2 {
		t.Fatalf("demoted = %v / %d", snap["governor.demoted_blocks"], g.Demoted())
	}
	for name, want := range map[string]float64{
		"governor.shed_subscribes": 1,
		"governor.shed_evictions":  1,
		"governor.breaker_trips":   1,
	} {
		if snap[name] != want {
			t.Fatalf("%s = %v, want %v", name, snap[name], want)
		}
	}
}

func TestStartStopTicker(t *testing.T) {
	heap := &fakeSource{v: 999}
	reg := metrics.NewRegistry()
	g := newTestGov(t, heap, nil, Config{MemBudget: 1000, Interval: time.Millisecond, Metrics: reg})
	g.Start()
	g.Start() // idempotent
	testx.WaitUntil(t, "the ticker to sample to critical", func() bool { return g.Level() == LevelCritical })
	g.Stop()
	g.Stop() // idempotent
	n := reg.Snapshot()["governor.samples"]
	time.Sleep(5 * time.Millisecond)
	if got := reg.Snapshot()["governor.samples"]; got != n {
		t.Fatalf("samples advanced after Stop: %v -> %v", n, got)
	}
}

func TestResolveMemBudget(t *testing.T) {
	if got := resolveMemBudget(42); got != 42 {
		t.Fatalf("explicit budget: %d", got)
	}
	if got := resolveMemBudget(-1); got != 0 {
		t.Fatalf("disabled budget: %d", got)
	}
	// 0 falls back to GOMEMLIMIT; without one set the dimension is off.
	// (CI's soak job sets GOMEMLIMIT, so accept either outcome — just not
	// a negative.)
	if got := resolveMemBudget(0); got < 0 {
		t.Fatalf("GOMEMLIMIT fallback negative: %d", got)
	}
}
