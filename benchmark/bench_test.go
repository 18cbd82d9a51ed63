package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ccx/internal/metrics"
	"ccx/internal/stats"
)

func TestMain(m *testing.M) {
	logw = io.Discard
	os.Exit(m.Run())
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.50}, {19, 0.50}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {50000, 0.99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	var samples []float64
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		samples = append(samples, float64(i))
	}
	if got := median(samples); got != 500.5 {
		t.Errorf("median = %v, want 500.5", got)
	}
	if got := tailOf(samples, 0.99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
	// 150 samples support p90 but not p99: the tail falls back to p90.
	if got, want := tailOf(samples[:150], 0.99), stats.Percentile(samples[:150], 90); got != want {
		t.Errorf("tailOf(0.99) with 150 samples = %v, want the p90 %v", got, want)
	}
	if got := tailOf(nil, 0.99); got != 0 {
		t.Errorf("empty sample tail = %v, want 0", got)
	}
}

func TestHistogramHelpers(t *testing.T) {
	a, b := newHist(), newHist()
	for i := 1; i <= 1000; i++ {
		a.Observe(float64(i)) // 1..1000 ms
	}
	b.Observe(5000)
	var zero metrics.HistogramSnapshot
	if got := quantile(zero, 0.5); got != 0 {
		t.Errorf("quantile of an empty histogram = %v, want 0", got)
	}
	all := mergeHists(zero, a.Snapshot(), zero, b.Snapshot())
	if all.Count != 1001 {
		t.Fatalf("merged count = %d, want 1001", all.Count)
	}
	if got := quantile(all, 0.5); math.Abs(got-500) > 500*0.02 {
		t.Errorf("median of 1..1000 = %v, want 500 within a bucket", got)
	}
	// 250 falls inside a bucket; that bucket's values are not counted.
	if got := countAbove(all, 250); got < 745 || got > 751 {
		t.Errorf("countAbove(250) = %d, want about 750", got)
	}
	// Twelve bins of 20 samples: p90 needs 100 samples a group, which
	// merging down to three groups of 80 does not reach, so the whole run's
	// p90 is reported; p50 is the median over the twelve bins.
	bins := make([]metrics.HistogramSnapshot, 12)
	for i := range bins {
		h := newHist()
		for k := 1; k <= 20; k++ {
			h.Observe(float64(k))
		}
		bins[i] = h.Snapshot()
	}
	if got := binnedQuantile(bins, 0.90); math.Abs(got-18) > 1 {
		t.Errorf("binned p90 of 12 x (1..20) = %v, want 18", got)
	}
	if got := binnedQuantile(bins, 0.50); math.Abs(got-10) > 0.5 {
		t.Errorf("binned p50 of 12 x (1..20) = %v, want 10", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// fakeClock never sleeps: SleepUntil jumps, and the test moves time to
// stand for the cost of a send.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestPacerSchedule(t *testing.T) {
	sched := ladderSchedule([]float64{100, 200, 400}, []int{1, 2, 1}, time.Second, 4*time.Second)
	clk := &fakeClock{}
	p := newPacer(sched, clk)
	counts := make([]int, len(sched.segs))
	var prev time.Duration = -1
	for {
		due, seg, ok := p.wait()
		if !ok {
			break
		}
		if due <= prev {
			t.Fatalf("due instants not increasing: %v after %v", due, prev)
		}
		if start, end := sched.bounds(seg); due < start || due >= end {
			t.Fatalf("block due at %v placed in segment %d [%v, %v)", due, seg, start, end)
		}
		if got := sched.segmentAt(due); got != seg {
			t.Fatalf("segmentAt(%v) = %d, pacer said %d", due, got, seg)
		}
		prev = due
		counts[seg]++
	}
	// Warm-up at the first rate for 1 s, then 1 s, 2 s and 1 s on the rungs.
	if want := []int{100, 100, 400, 400}; !equalInts(counts, want) {
		t.Errorf("blocks per segment = %v, want %v", counts, want)
	}
	for seg := range sched.segs {
		if p.lateShare(seg) != 0 {
			t.Errorf("segment %d: late share %v with an instant sender", seg, p.lateShare(seg))
		}
	}
}

func TestPacerLateness(t *testing.T) {
	// 100 blocks/s for 1 s. The 10th send stalls for 35 ms: the next three
	// blocks (due 10, 20, 30 ms after it) start late, back to back, and keep
	// their original due instants; after that the generator is on time again.
	sched := schedule{segs: []segment{{rate: 100, length: time.Second}}}
	clk := &fakeClock{}
	p := newPacer(sched, clk)
	var dues []time.Duration
	for i := 0; ; i++ {
		due, _, ok := p.wait()
		if !ok {
			break
		}
		dues = append(dues, due)
		if i == 9 {
			clk.now += 35 * time.Millisecond
		}
	}
	if len(dues) != 100 {
		t.Fatalf("sent %d blocks, want 100", len(dues))
	}
	for i, due := range dues {
		if want := time.Duration(i) * 10 * time.Millisecond; due != want {
			t.Fatalf("block %d due at %v, want %v: a stall must not move the schedule", i, due, want)
		}
	}
	if p.late[0] != 3 {
		t.Errorf("late blocks = %d, want 3", p.late[0])
	}
	if got, want := p.lateShare(0), 0.03; math.Abs(got-want) > 1e-12 {
		t.Errorf("late share = %v, want %v", got, want)
	}
	wantLag := []float64{25, 15, 5} // ms behind for blocks 10, 11, 12
	for k, want := range wantLag {
		if got := p.lagMs[0][10+k]; math.Abs(got-want) > 1e-9 {
			t.Errorf("block %d lag = %v ms, want %v", 10+k, got, want)
		}
	}
	if got := p.lagMs[0][13]; got != 0 {
		t.Errorf("block 13 lag = %v ms, want 0", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: 10..60 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 150},  // sticks out: only 90..100 counts
		{ID: 5, Parent: 1, Name: "d", Start: -20, End: -5},  // entirely outside
		{ID: 6, Parent: 2, Name: "a1", Start: 15, End: 20},  // grandchild: a's business
		{ID: 7, Name: "orphan", Start: 0, End: 100},         // no parent: not a child of anything
		{ID: 8, Parent: 99, Name: "lost", Start: 0, End: 5}, // parent never recorded
	}
	cover := childCover(spans)
	for _, c := range []struct {
		id   int
		want int64
	}{{0, 100 - 50 - 10}, {1, 30 - 5}, {2, 30}, {3, 60}, {5, 5}, {6, 100}, {7, 5}} {
		if got := selfTime(spans[c.id], cover); got != c.want {
			t.Errorf("self time of %q = %d, want %d", spans[c.id].Name, got, c.want)
		}
	}
	rows := layerTable(spans, window{from: 0, to: 100, bins: 1})
	for _, r := range rows {
		if r.Name == "parent" && (r.TotalMs != 100e-6 || r.SelfMs != 40e-6) {
			t.Errorf("layer row for parent = %+v, want total 100 ns, self 40 ns", r)
		}
		if r.Name == "d" {
			t.Errorf("span starting before the window was counted: %+v", r)
		}
	}
}

func TestIntervalAlgebra(t *testing.T) {
	a := mergeIntervals([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 20}, {30, 40}})
	if want := []interval{{0, 10}, {30, 40}}; len(a) != 2 || a[0] != want[0] || a[1] != want[1] {
		t.Fatalf("merge = %v, want %v", a, want)
	}
	if got := totalLen(a); got != 20 {
		t.Errorf("total = %d, want 20", got)
	}
	b := mergeIntervals([]interval{{8, 32}, {39, 50}})
	if got := intersectLen(a, b); got != 2+2+1 {
		t.Errorf("intersection = %d, want 5", got)
	}
}

func TestOracle(t *testing.T) {
	c := newCorpus(7, 16<<10)
	blk := make([]byte, c.blockSize)
	send := func(o *oracle, seq uint64) bool {
		c.fill(blk, seq, int64(seq)*1000)
		got, stamp, fresh := o.observe(blk)
		if got != seq || stamp != int64(seq)*1000 {
			t.Fatalf("observe(%d) read seq %d stamp %d", seq, got, stamp)
		}
		return fresh
	}
	o := newOracle(c)
	for _, seq := range []uint64{1, 2, 3} {
		if !send(o, seq) {
			t.Fatalf("block %d in order not counted as a delivery", seq)
		}
	}
	if send(o, 2) {
		t.Error("duplicate counted as a delivery")
	}
	if !send(o, 6) { // 4 and 5 skipped
		t.Error("block after a gap not counted as a delivery")
	}
	if send(o, 5) { // arrives late, behind 6: out of order
		t.Error("reordered block counted as a delivery")
	}
	c.fill(blk, 7, 0)
	blk[c.blockSize-1] ^= 1
	if _, _, fresh := o.observe(blk); fresh {
		t.Error("corrupt block counted as a delivery")
	}
	o.finish(9) // 7 (corrupt, never delivered intact), 8, 9 never arrived
	if o.delivered != 4 || o.duplicate != 2 || o.corrupt != 1 || o.missing != 2+3 {
		t.Errorf("delivered %d duplicate %d corrupt %d missing %d, want 4 2 1 5", o.delivered, o.duplicate, o.corrupt, o.missing)
	}
	if want := [][2]uint64{{4, 5}, {7, 9}}; len(o.gaps) != 2 || o.gaps[0] != want[0] || o.gaps[1] != want[1] {
		t.Errorf("gaps = %v, want %v", o.gaps, want)
	}
	// The corpus loops: block 1 and block 1+len carry the same payload but
	// are told apart by their stamp.
	c.fill(blk, uint64(len(c.blocks))+1, 0)
	if !bytes.Equal(blk[headerLen:], c.block(1)[headerLen:]) {
		t.Error("corpus does not loop")
	}
	// Same seed, same inputs; another seed, other inputs.
	if !bytes.Equal(newCorpus(7, 16<<10).block(5), c.block(5)) || bytes.Equal(newCorpus(8, 16<<10).block(5), c.block(5)) {
		t.Error("corpus is not a function of the seed")
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.05, verdictOK},
		{"latency up 10% past a 5% bound", steady, []float64{110, 111, 109, 110, 110.5}, "lower", 0.05, verdictWorse},
		{"latency up 10% inside a 20% bound", steady, []float64{110, 111, 109, 110, 110.5}, "lower", 0.20, verdictOK},
		{"throughput down 10% past a 5% bound", steady, []float64{90, 91, 89, 90, 90.5}, "higher", 0.05, verdictWorse},
		{"throughput up", steady, []float64{110, 111, 109, 110, 110.5}, "higher", 0.05, verdictOK},
		{"spread wider than the bound", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "lower", 0.05, verdictUnresolved},
		{"wide spread but every run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "lower", 0.05, verdictOK},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRunsAndBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(sub, name string, latency float64, failed int64, correct bool) {
		r := result{Workload: "p2p_fastlink_16k", Correct: correct, Attempted: 1000, Failed: failed,
			Metrics: map[string]metricValue{"latency_p50_ms": {Value: latency, Unit: "ms"}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, name), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{1.00, 1.01, 0.99} {
		name := string(rune('0'+i)) + ".json"
		write("a", name, v, 0, true)
		write("same", name, v*1.01, 0, true)
		write("slow", name, v*2, 0, true)
		write("lossy", name, v, int64(i), true) // same latency, 3 of 3000 deliveries lost
		write("corrupt", name, v, 0, i != 1)
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if code := compareMain([]string{"--spec", spec, filepath.Join(dir, "a"), filepath.Join(dir, "same")}, &out); code != 0 {
		t.Errorf("compare of agreeing sets exited %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), verdictWorse+"\n") || !strings.Contains(out.String(), "latency_p50_ms") {
		t.Errorf("compare output for agreeing sets:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"--spec", spec, filepath.Join(dir, "a"), filepath.Join(dir, "slow")}, &out); code != 1 {
		t.Errorf("compare with latency doubled exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse+"\n") {
		t.Errorf("compare output with latency doubled lacks %q:\n%s", verdictWorse, out.String())
	}
	// Failures have no bound to hide under: a set that loses deliveries, or
	// holds a run that did not end correct, is worse even when every metric
	// agrees.
	for _, sub := range []string{"lossy", "corrupt"} {
		out.Reset()
		if code := compareMain([]string{"--spec", spec, filepath.Join(dir, "a"), filepath.Join(dir, sub)}, &out); code != 1 {
			t.Errorf("compare against the %s set exited %d, want 1:\n%s", sub, code, out.String())
		}
		if !regexp.MustCompile(`failed/attempted .*worse\n`).MatchString(out.String()) {
			t.Errorf("compare against the %s set: no worse failed/attempted row:\n%s", sub, out.String())
		}
	}
}

// TestMetricNamesDeclared holds the harness and BENCHMARK.json together:
// every metric the harness prints is declared there with the same unit,
// nothing declared is left unprinted, and the workload lists agree.
func TestMetricNamesDeclared(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, declared []specMetric) {
		want := make(map[string]string)
		for _, d := range declared {
			want[d.Name] = d.Unit
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
		}
		seen := make(map[string]bool)
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric name %q does not match %v", kind, d.name, nameRE)
			}
			if seen[d.name] {
				t.Errorf("%s metric %s listed twice", kind, d.name)
			}
			seen[d.name] = true
			unit, ok := want[d.name]
			if !ok {
				t.Errorf("%s metric %s is printed but not declared in BENCHMARK.json", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s metric %s: unit %q in the harness, %q in BENCHMARK.json", kind, d.name, d.unit, unit)
			}
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %s is declared in BENCHMARK.json but never printed", kind, name)
			}
		}
	}
	check("end-to-end", endToEnd, spec.EndToEnd)
	check("per-layer", perLayer, spec.PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
	}
	// A run's printed metrics are exactly the declared ones, whatever the
	// workload filled in.
	if got := render(endToEnd, map[string]float64{"setup_s": 1, "not_declared": 2}); len(got) != len(endToEnd) || got["setup_s"].Value != 1 {
		t.Errorf("render = %v", got)
	}
}

// TestSmoke runs every workload for one measured second (after a short
// warm-up): all four topologies come up, deliver, verify and tear down.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{workload: w.name, seed: 3, warmup: 200 * time.Millisecond, measure: time.Second}
			m, err := w.run(cfg, realClock{base: time.Now()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.wrong != 0 || m.attempted == 0 {
				t.Errorf("attempted %d, failed %d, wrong %d", m.attempted, m.failed, m.wrong)
			}
			for name, v := range endToEndValues(m) {
				if !(v > 0) {
					t.Errorf("%s = %v, want a positive value", name, v)
				}
			}
			if len(m.setupS) != setupRepeats {
				t.Errorf("%d set-up timings, want %d", len(m.setupS), setupRepeats)
			}
		})
	}
}

// TestSmokeTraced runs one traced pass and checks the artefacts.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	cfg := runConfig{workload: "p2p_fastlink_16k", seed: 3, warmup: 200 * time.Millisecond, measure: time.Second}
	res, err := runTraced(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, failed %d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"selector.method_share.none", "lz.encode_mb_s", "codec.frame_append_ns", "core.rx_self_us_p50", "sampling.probe_us_p50"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive value", name, res.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Layers []layerRow `json:"layers"`
	}
	if err := json.Unmarshal(b, &table); err != nil || len(table.Layers) == 0 {
		t.Errorf("layers.json: %v, %d rows", err, len(table.Layers))
	}
	lines, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var first struct {
		ID   uint64 `json:"id"`
		Name string `json:"name"`
		End  int64  `json:"end_ns"`
	}
	if err := json.Unmarshal(lines[:bytes.IndexByte(lines, '\n')], &first); err != nil || first.ID == 0 || first.Name == "" || first.End == 0 {
		t.Errorf("first span line: %v %+v", err, first)
	}
}
