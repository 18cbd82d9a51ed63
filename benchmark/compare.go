package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"ccx/internal/stats"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the
// workload list, and each end-to-end metric's direction and bound.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRuns loads the --out records under path: every *.json file of a
// directory, or one file with a record per line.
func readRuns(path string) ([]result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []result
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if r.Workload == "" {
				fh.Close()
				return nil, fmt.Errorf("%s: record without a workload name (write records with --out)", f)
			}
			runs = append(runs, r)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return runs, nil
}

// values collects one metric's values over the untraced runs of a workload.
func values(runs []result, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, mv.Value)
		}
	}
	return out
}

// failures sums the untraced runs of a workload: deliveries failed and
// attempted, and how many runs did not end correct (a block corrupt,
// repeated or out of order, or a workload that no longer means what it says).
func failures(runs []result, workload string) (failed, attempted int64, incorrect int) {
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct {
			incorrect++
		}
	}
	return failed, attempted, incorrect
}

// judgeFailures compares the share of failed deliveries. The workloads are
// chosen so that nothing fails, so there is no noise to allow for: the
// verdict is worse when any run of either set is incorrect (its metrics
// are in the medians all the same) or when B fails a larger share than A.
func judgeFailures(failedA, attemptedA int64, incorrectA int, failedB, attemptedB int64, incorrectB int) string {
	switch {
	case incorrectA+incorrectB > 0:
		return verdictWorse
	case attemptedA == 0 || attemptedB == 0:
		return verdictUnresolved
	case float64(failedB)/float64(attemptedB) > float64(failedA)/float64(attemptedA):
		return verdictWorse
	}
	return verdictOK
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares set B with set A for a metric whose better direction and
// bound BENCHMARK.json fixes. B is worse when its median is worse than A's
// by more than the bound. When either set's own spread (quartile distance
// over median) is wider than the bound the sets cannot settle that
// question: unresolved, unless every B run reads better than every A run.
func judge(a, b []float64, better string, bound float64) (verdict string, change, spread float64) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	if medA == 0 || medB == 0 {
		return verdictUnresolved, 0, 0
	}
	change = (medB - medA) / medA // positive = B worse
	if better == "higher" {
		change = -change
	}
	spread = (q3a - q1a) / medA
	if s := (q3b - q1b) / medB; s > spread {
		spread = s
	}
	if spread > bound {
		if allBetter(a, b, better) {
			return verdictOK, change, spread
		}
		return verdictUnresolved, change, spread
	}
	if change > bound {
		return verdictWorse, change, spread
	}
	return verdictOK, change, spread
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	minA, maxA := stats.MinMax(a)
	minB, maxB := stats.MinMax(b)
	if better == "higher" {
		return minB > maxA
	}
	return maxB < minA
}

// compareMain implements `benchmark compare <runs-A> <runs-B>`: per
// workload and end-to-end metric, both sets' medians and quartiles and a
// verdict against the bounds in BENCHMARK.json, and per workload the failed
// deliveries of both sets. It exits 1 when any row is worse.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(logw, "usage: benchmark compare [--spec BENCHMARK.json] <runs-A> <runs-B>")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(logw, "compare:", err)
		return 2
	}
	runsA, err := readRuns(fs.Arg(0))
	if err == nil && len(runsA) == 0 {
		err = fmt.Errorf("%s: no runs", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(logw, "compare:", err)
		return 2
	}
	runsB, err := readRuns(fs.Arg(1))
	if err == nil && len(runsB) == 0 {
		err = fmt.Errorf("%s: no runs", fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(logw, "compare:", err)
		return 2
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1/median/q3 (n)\tB q1/median/q3 (n)\tB worse by\tspread\tbound\tverdict")
	worse := 0
	for _, wl := range spec.Workloads {
		failedA, attemptedA, incorrectA := failures(runsA, wl.Name)
		failedB, attemptedB, incorrectB := failures(runsB, wl.Name)
		if attemptedA+attemptedB > 0 {
			v := judgeFailures(failedA, attemptedA, incorrectA, failedB, attemptedB, incorrectB)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d (%d incorrect)\t%d/%d (%d incorrect)\t\t\t0%%\t%s\n",
				wl.Name, failedA, attemptedA, incorrectA, failedB, attemptedB, incorrectB, v)
		}
		for _, m := range spec.EndToEnd {
			a, b := values(runsA, wl.Name, m.Name), values(runsB, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change, spread := judge(a, b, m.Better, m.Bound)
			if v == verdictWorse {
				worse++
			}
			q1a, medA, q3a := quartiles(a)
			q1b, medB, q3b := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g/%.4g/%.4g (%d)\t%.4g/%.4g/%.4g (%d)\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, q1a, medA, q3a, len(a), q1b, medB, q3b, len(b), change*100, spread*100, m.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(logw, "compare:", err)
		return 2
	}
	if worse > 0 {
		return 1
	}
	return 0
}
