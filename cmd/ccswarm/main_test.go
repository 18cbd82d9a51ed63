package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ccx/internal/metrics"
)

// TestQuantilesMatchMetricsExposition pins the report's percentile source
// to the /metrics surface: the swarm histogram is registered on the broker
// registry under metrics.SwarmLatencyName with the shared LatencyBuckets,
// so a quantile computed from the Prometheus exposition's bucket counts
// must agree with the report's snapshot quantile to within the width of
// the bucket the value lands in (bucket interpolation is the only slack).
func TestQuantilesMatchMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	lat := reg.Histogram(metrics.SwarmLatencyName, metrics.LatencyBuckets)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~50µs..500ms, the realistic swarm latency span.
		lat.Observe(50e-6 * math.Pow(10, rng.Float64()*4))
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scraped := parsePromHistogram(t, buf.String(), "swarm_latency_seconds")

	direct := lat.Snapshot()
	for _, q := range []float64{0.50, 0.90, 0.99} {
		want := direct.Quantile(q)
		got := scraped.Quantile(q)
		if math.IsNaN(want) || math.IsNaN(got) {
			t.Fatalf("q%.0f: NaN quantile (direct %v, scraped %v)", q*100, want, got)
		}
		if diff := math.Abs(got - want); diff > bucketWidthAt(direct.Bounds, want) {
			t.Errorf("q%.0f: scraped %.6f vs report %.6f differ by %.6f, over one bucket width",
				q*100, got, want, diff)
		}
	}
}

// parsePromHistogram rebuilds a histogram snapshot from the exposition
// text, the way a scraper would see it.
func parsePromHistogram(t *testing.T, text, name string) metrics.HistogramSnapshot {
	t.Helper()
	var s metrics.HistogramSnapshot
	var cum []int64
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			idx := strings.Index(rest, "\"}")
			if idx < 0 {
				t.Fatalf("malformed bucket line %q", line)
			}
			boundStr, countStr := rest[:idx], strings.TrimSpace(rest[idx+2:])
			n, err := strconv.ParseInt(countStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket count in %q: %v", line, err)
			}
			cum = append(cum, n)
			if boundStr != "+Inf" {
				b, err := strconv.ParseFloat(boundStr, 64)
				if err != nil {
					t.Fatalf("bucket bound in %q: %v", line, err)
				}
				s.Bounds = append(s.Bounds, b)
			}
		case strings.HasPrefix(line, name+"_count "):
			n, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			s.Count = n
		}
	}
	if len(cum) == 0 {
		t.Fatalf("histogram %s not found in exposition:\n%s", name, text)
	}
	// Exposition buckets are cumulative; Snapshot counts are per-bucket.
	s.Counts = make([]int64, len(cum))
	for i, c := range cum {
		s.Counts[i] = c
		if i > 0 {
			s.Counts[i] -= cum[i-1]
		}
	}
	return s
}

// bucketWidthAt returns the width of the bucket containing v.
func bucketWidthAt(bounds []float64, v float64) float64 {
	lo := 0.0
	for _, b := range bounds {
		if v <= b {
			return b - lo
		}
		lo = b
	}
	return math.Inf(1)
}

// TestTieredRunAndBaselineGate drives a tiny end-to-end sweep through
// run(): two tiers publish over unshaped pipes, the JSON artifact carries
// both tiers, a self-baseline passes the p99 gate, and a fabricated
// too-fast baseline fails it with a comparison artifact either way.
func TestTieredRunAndBaselineGate(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "swarm.json")
	var out bytes.Buffer
	args := []string{
		"-tiers", "4,8", "-events", "6", "-block", "1024",
		"-profiles", "none", "-queue", "32",
		"-json", jsonPath,
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("tiered run: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc swarmFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tiers) != 2 || doc.Tiers[0].Subscribers != 4 || doc.Tiers[1].Subscribers != 8 {
		t.Fatalf("artifact tiers = %+v, want subscriber tiers 4 and 8", doc.Tiers)
	}
	for _, r := range doc.Tiers {
		if want := int64(r.Subscribers * r.Events); r.Delivered != want {
			t.Errorf("tier %d delivered %d blocks, want %d", r.Subscribers, r.Delivered, want)
		}
		if math.IsNaN(r.LatencyP99) || r.LatencyP99 <= 0 {
			t.Errorf("tier %d p99 = %v, want a positive latency", r.Subscribers, r.LatencyP99)
		}
	}
	if !strings.Contains(out.String(), "connections") {
		t.Error("multi-tier run printed no connections-vs-latency table")
	}

	// Self-baseline: the same machine re-running the same tiny tiers stays
	// within any sane regression budget.
	comparePath := filepath.Join(dir, "cmp.json")
	out.Reset()
	gateArgs := []string{
		"-tiers", "4,8", "-events", "6", "-block", "1024",
		"-profiles", "none", "-queue", "32",
		"-baseline", jsonPath, "-max-regress", "20", "-compare", comparePath,
	}
	if err := run(gateArgs, &out); err != nil {
		t.Fatalf("self-baseline gate: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(comparePath); err != nil {
		t.Fatalf("comparison artifact missing: %v", err)
	}

	// A baseline claiming near-zero p99 must fail the gate, and the
	// comparison artifact is still written before the failure surfaces.
	fast := swarmFile{Tiers: doc.Tiers}
	fastTiers := make([]report, len(doc.Tiers))
	copy(fastTiers, doc.Tiers)
	for i := range fastTiers {
		fastTiers[i].LatencyP99 = 1e-12
	}
	fast.Tiers = fastTiers
	fastPath := filepath.Join(dir, "fast.json")
	enc, _ := json.Marshal(fast)
	if err := os.WriteFile(fastPath, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	failCompare := filepath.Join(dir, "fail-cmp.json")
	out.Reset()
	failArgs := []string{
		"-tiers", "4", "-events", "6", "-block", "1024",
		"-profiles", "none", "-queue", "32",
		"-baseline", fastPath, "-compare", failCompare,
	}
	err = run(failArgs, &out)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("impossible baseline: err = %v, want p99 regression failure", err)
	}
	raw, err = os.ReadFile(failCompare)
	if err != nil {
		t.Fatalf("failure-path comparison artifact missing: %v", err)
	}
	var cmp struct {
		Tiers []tierComparison `json:"tiers"`
	}
	if err := json.Unmarshal(raw, &cmp); err != nil {
		t.Fatal(err)
	}
	if len(cmp.Tiers) != 1 || cmp.Tiers[0].Pass {
		t.Fatalf("comparison rows = %+v, want one failing tier", cmp.Tiers)
	}
}
