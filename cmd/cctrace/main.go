// Command cctrace stitches distributed-trace span dumps from N hops into
// per-block waterfalls and a critical-path report. Inputs are JSONL span
// dumps — files written by the daemons' -trace-out flag, or /debug/spans
// URLs fetched live from their -debug planes:
//
//	cctrace pub-spans.jsonl broker-spans.jsonl recv-spans.jsonl
//	cctrace http://127.0.0.1:9984/debug/spans recv-spans.jsonl
//
// Hop clocks are never assumed synchronized: cctrace orders hops causally
// (the stamping hop first, then forwarding hops, then terminals) and
// subtracts a per-hop offset that pins each hop's fastest observed
// hand-off gap at zero — a one-way-delay floor, the best any passive
// observer can do without an RTT estimate. The report then partitions
// every trace's end-to-end latency into (hop, stage) rows — probe, encode,
// queue, write, decode, plus the "wire" and "idle" pseudo-stages — that
// sum exactly to the trace duration, and prints p50/p99 exemplar
// waterfalls. A decide or migrate row carries the selector's worded reason,
// so the same dump says why the block went out the way it did.
//
// CI smoke tests assert on the same stitching via -min-hops and -require:
// exit status 1 when fewer than -require traces span at least -min-hops
// distinct hops (and, with -require-anomaly, when no always-on span — a
// resync, gap, migration or other method switch — was captured at all).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"ccx/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cctrace", flag.ContinueOnError)
	var (
		minHops    = fs.Int("min-hops", 2, "count a trace as complete when it spans at least this many distinct hops")
		require    = fs.Int("require", 0, "fail (exit 1) unless at least this many complete traces were stitched")
		reqAnomaly = fs.Bool("require-anomaly", false, "fail (exit 1) unless at least one always-on span (resync, gap, dup, resume, migrate or another method switch) was captured")
		waterfalls = fs.Int("waterfalls", 2, "render this many exemplar waterfalls (the p50 and p99 traces first)")
		jsonOut    = fs.Bool("json", false, "emit the stitched report as JSON instead of text")
		timeout    = fs.Duration("timeout", 5*time.Second, "per-URL fetch timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("need at least one span dump (file path or /debug/spans URL)")
	}
	var spans []tracing.Span
	for _, src := range fs.Args() {
		ss, err := load(src, *timeout)
		if err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		spans = append(spans, ss...)
	}
	rep := tracing.Stitch(spans)
	complete := rep.Complete(*minHops)

	if *jsonOut {
		if err := writeJSON(out, rep, complete, *minHops); err != nil {
			return err
		}
	} else {
		writeText(out, rep, complete, *minHops, *waterfalls)
	}

	if *require > 0 && len(complete) < *require {
		return fmt.Errorf("only %d/%d required traces span >= %d hops", len(complete), *require, *minHops)
	}
	if *reqAnomaly && len(rep.Anomalies) == 0 {
		return fmt.Errorf("no anomaly spans captured (expected at least one resync/gap/migrate/resume)")
	}
	return nil
}

// load reads one span dump: a file path, "-" for stdin, or an http(s) URL.
func load(src string, timeout time.Duration) ([]tracing.Span, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		cl := &http.Client{Timeout: timeout}
		resp, err := cl.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %s", resp.Status)
		}
		return tracing.ReadJSONL(resp.Body)
	}
	if src == "-" {
		return tracing.ReadJSONL(os.Stdin)
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tracing.ReadJSONL(f)
}

// jsonReport is the -json output shape: stable keys, nanosecond integers.
type jsonReport struct {
	Traces    int                 `json:"traces"`
	Complete  int                 `json:"complete"`
	MinHops   int                 `json:"min_hops"`
	Origin    string              `json:"origin,omitempty"`
	Offsets   map[string]int64    `json:"offsets_ns,omitempty"`
	P50Ns     int64               `json:"p50_ns"`
	P99Ns     int64               `json:"p99_ns"`
	Critical  []tracing.StageCost `json:"critical_path"`
	Anomalies []tracing.Span      `json:"anomalies,omitempty"`
}

func writeJSON(w io.Writer, rep *tracing.Report, complete []*tracing.Trace, minHops int) error {
	durs := durations(complete)
	jr := jsonReport{
		Traces:    len(rep.Traces),
		Complete:  len(complete),
		MinHops:   minHops,
		Origin:    rep.Origin,
		Offsets:   rep.Offsets,
		P50Ns:     tracing.Percentile(durs, 50),
		P99Ns:     tracing.Percentile(durs, 99),
		Critical:  aggregate(complete),
		Anomalies: rep.Anomalies,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

func writeText(w io.Writer, rep *tracing.Report, complete []*tracing.Trace, minHops, nWater int) {
	durs := durations(complete)
	fmt.Fprintf(w, "stitched %d traces (%d complete across >= %d hops)", len(rep.Traces), len(complete), minHops)
	if rep.Origin != "" {
		fmt.Fprintf(w, ", origin %s", rep.Origin)
	}
	fmt.Fprintln(w)
	if len(rep.Offsets) > 0 {
		hops := make([]string, 0, len(rep.Offsets))
		for h := range rep.Offsets {
			hops = append(hops, h)
		}
		sort.Strings(hops)
		fmt.Fprint(w, "clock offsets:")
		for _, h := range hops {
			fmt.Fprintf(w, "  %s=%s", h, time.Duration(rep.Offsets[h]))
		}
		fmt.Fprintln(w)
	}
	if len(complete) == 0 {
		if len(rep.Anomalies) > 0 {
			writeAnomalies(w, rep.Anomalies)
		}
		return
	}
	fmt.Fprintf(w, "end-to-end latency: p50 %s  p99 %s  (n=%d)\n",
		time.Duration(tracing.Percentile(durs, 50)), time.Duration(tracing.Percentile(durs, 99)), len(durs))

	// Aggregate critical path across complete traces: the share of total
	// end-to-end time each (hop, stage) pair owns.
	agg := aggregate(complete)
	var total int64
	for _, c := range agg {
		total += c.Ns
	}
	fmt.Fprintf(w, "\ncritical path (%d traces, %s total):\n", len(complete), time.Duration(total))
	fmt.Fprintf(w, "  %-12s %-10s %12s %7s\n", "HOP", "STAGE", "TIME", "SHARE")
	for _, c := range agg {
		fmt.Fprintf(w, "  %-12s %-10s %12s %6.1f%%\n",
			c.Hop, c.Stage, time.Duration(c.Ns), 100*float64(c.Ns)/float64(total))
	}

	// Per-placement roll-up, when the traces carry placement decisions.
	byPlacement := make(map[string][]int64)
	for _, t := range complete {
		if pl := t.Placement(); pl != "" {
			byPlacement[pl] = append(byPlacement[pl], t.Duration())
		}
	}
	if len(byPlacement) > 0 {
		pls := make([]string, 0, len(byPlacement))
		for pl := range byPlacement {
			pls = append(pls, pl)
		}
		sort.Strings(pls)
		fmt.Fprintln(w, "\nby placement:")
		for _, pl := range pls {
			d := byPlacement[pl]
			fmt.Fprintf(w, "  %-10s n=%-5d p50 %-12s p99 %s\n",
				pl, len(d), time.Duration(tracing.Percentile(d, 50)), time.Duration(tracing.Percentile(d, 99)))
		}
	}

	// Exemplar waterfalls: the traces closest to p50 and p99, then more by
	// duration if asked for.
	for i, t := range exemplars(complete, durs, nWater) {
		label := "p50"
		if i > 0 {
			label = "p99"
		}
		if i > 1 {
			label = fmt.Sprintf("#%d", i+1)
		}
		fmt.Fprintf(w, "\nwaterfall %s  trace %016x  %s across %s:\n",
			label, t.ID, time.Duration(t.Duration()), strings.Join(t.Hops, " -> "))
		waterfall(w, t)
	}

	if len(rep.Anomalies) > 0 {
		writeAnomalies(w, rep.Anomalies)
	}
}

func writeAnomalies(w io.Writer, anomalies []tracing.Span) {
	fmt.Fprintf(w, "\nanomalies (%d):\n", len(anomalies))
	max := len(anomalies)
	if max > 20 {
		max = 20
	}
	for _, s := range anomalies[len(anomalies)-max:] {
		fmt.Fprintf(w, "  %-10s %-10s seq=%-8d", s.Hop, s.Stage, s.Seq)
		if s.Err != "" {
			fmt.Fprintf(w, " %s", s.Err)
		}
		if s.Decision != nil {
			fmt.Fprintf(w, " -> %s/%s: %s", s.Method, s.Placement, s.Decision.Reason)
		}
		fmt.Fprintln(w)
	}
	if max < len(anomalies) {
		fmt.Fprintf(w, "  ... %d older elided\n", len(anomalies)-max)
	}
}

// durations collects corrected end-to-end durations.
func durations(traces []*tracing.Trace) []int64 {
	out := make([]int64, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.Duration())
	}
	return out
}

// aggregate sums critical-path attributions across traces, largest first.
func aggregate(traces []*tracing.Trace) []tracing.StageCost {
	type key struct{ hop, stage string }
	acc := make(map[key]int64)
	for _, t := range traces {
		for _, c := range t.Attribution() {
			acc[key{c.Hop, c.Stage}] += c.Ns
		}
	}
	out := make([]tracing.StageCost, 0, len(acc))
	for k, ns := range acc {
		out = append(out, tracing.StageCost{Hop: k.hop, Stage: k.stage, Ns: ns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ns != out[j].Ns {
			return out[i].Ns > out[j].Ns
		}
		return out[i].Hop+out[i].Stage < out[j].Hop+out[j].Stage
	})
	return out
}

// exemplars picks up to n traces: the ones realizing the p50 and p99
// durations first, then the rest slowest-first.
func exemplars(traces []*tracing.Trace, durs []int64, n int) []*tracing.Trace {
	if n <= 0 || len(traces) == 0 {
		return nil
	}
	byDur := func(target int64) *tracing.Trace {
		var best *tracing.Trace
		for _, t := range traces {
			if best == nil || abs(t.Duration()-target) < abs(best.Duration()-target) {
				best = t
			}
		}
		return best
	}
	seen := make(map[uint64]bool)
	var out []*tracing.Trace
	for _, target := range []int64{tracing.Percentile(durs, 50), tracing.Percentile(durs, 99)} {
		if t := byDur(target); t != nil && !seen[t.ID] && len(out) < n {
			seen[t.ID] = true
			out = append(out, t)
		}
	}
	rest := append([]*tracing.Trace(nil), traces...)
	sort.Slice(rest, func(i, j int) bool { return rest[i].Duration() > rest[j].Duration() })
	for _, t := range rest {
		if len(out) >= n {
			break
		}
		if !seen[t.ID] {
			seen[t.ID] = true
			out = append(out, t)
		}
	}
	return out
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// waterfall renders one trace's spans as left-aligned bars on a shared
// time axis, one row per span, in corrected start order.
func waterfall(w io.Writer, t *tracing.Trace) {
	const width = 48
	start, dur := t.Start(), t.Duration()
	if dur <= 0 {
		dur = 1
	}
	for _, s := range t.Spans {
		off := int(float64(s.Start-start) / float64(dur) * width)
		bar := int(float64(s.Dur) / float64(dur) * width)
		if off > width {
			off = width
		}
		if bar < 1 {
			bar = 1
		}
		if off+bar > width {
			bar = width - off
			if bar < 1 {
				bar = 1
				off = width - 1
			}
		}
		lane := strings.Repeat(" ", off) + strings.Repeat("#", bar) + strings.Repeat(" ", width-off-bar)
		detail := ""
		if s.Method != "" {
			detail = " " + s.Method
		}
		if s.CacheHit {
			detail += " (cache)"
		}
		if s.Decision != nil && s.Decision.Reason != "" {
			detail += ": " + s.Decision.Reason
		}
		fmt.Fprintf(w, "  %-10s %-10s |%s| %10s @ %-10s%s\n",
			s.Hop, s.Stage, lane, time.Duration(s.Dur), time.Duration(s.Start-start), detail)
	}
}
