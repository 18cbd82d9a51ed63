// Command benchmark measures ccx end to end and layer by layer: one
// invocation runs one workload for --seconds from --seed, checks every
// delivered block against the generated corpus, and prints the metrics as
// the last line of standard output. See README.md in this directory.
//
//	bash benchmark/run.sh --workload p2p_slowlink_128k --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload p2p_slowlink_128k --seed 1 --seconds 20 --trace 1
//	bash benchmark/run.sh compare runs-a runs-b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// logw receives progress and diagnostics; standard output carries only the
// result line.
var logw io.Writer = os.Stderr

// result is the full record of one run. The last line of standard output
// carries exactly correct, attempted, failed and metrics; --out adds the
// rest for `compare` and for the record.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Env       *environment           `json:"env,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = fs.Int64("seed", 1, "seed for the corpus and the simulated links; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 30, "measured seconds, after the 3 s warm-up")
		trace    = fs.Int("trace", 0, "0: untraced run printing the end-to-end metrics; 1: traced run printing the per-layer metrics")
		traceDir = fs.String("trace-dir", filepath.Join("benchmark", ".build", "trace"), "traced run: directory for spans.jsonl and layers.json")
		out      = fs.String("out", "", "also write the full result record (with env) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(logw, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		warmup:   warmup,
		measure:  time.Duration(*seconds * float64(time.Second)),
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg, filepath.Join(*traceDir, cfg.workload))
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(logw, "benchmark:", err)
		return 1
	}
	if *out != "" {
		full := *res
		full.Workload, full.Trace = cfg.workload, *trace
		full.Env = readEnvironment(cfg, *seconds)
		b, err := json.Marshal(full)
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(logw, "benchmark: --out:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(logw, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadDef is one workload: its block size (the layer replays need it)
// and how to run one measured pass. rec is nil for an untraced pass.
type workloadDef struct {
	name      string
	blockSize int
	brokered  bool
	// minNoneShare, when set, is the least share of blocks the selector must
	// leave uncompressed for the workload to mean what it says.
	minNoneShare float64
	run          func(cfg runConfig, clk realClock, rec *recorder) (*measured, error)
}

var workloads = []workloadDef{
	{name: "p2p_slowlink_128k", blockSize: 128 << 10, run: func(cfg runConfig, clk realClock, rec *recorder) (*measured, error) {
		return runP2P(cfg, p2pSpec{blockSize: 128 << 10, shaped: true}, clk, rec)
	}},
	{name: "p2p_fastlink_16k", blockSize: 16 << 10, minNoneShare: 0.95, run: func(cfg runConfig, clk realClock, rec *recorder) (*measured, error) {
		return runP2P(cfg, p2pSpec{blockSize: 16 << 10}, clk, rec)
	}},
	{name: "fanout_steady_4sub", blockSize: fanoutBlock, brokered: true, run: func(cfg runConfig, clk realClock, rec *recorder) (*measured, error) {
		return runFanout(cfg, fanoutSpec{rates: []float64{100, 200, 300}, weights: []int{1, 2, 1}, latencyRate: 200}, clk, rec)
	}},
	{name: "fanout_churn_resume", blockSize: fanoutBlock, brokered: true, run: func(cfg runConfig, clk realClock, rec *recorder) (*measured, error) {
		return runFanout(cfg, fanoutSpec{rates: []float64{200}, weights: []int{1}, latencyRate: 200, churn: true}, clk, rec)
	}},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// verdict applies the correctness rules. No block may arrive corrupt,
// repeated or out of order; a missing block is the drop policy's doing and
// counts as failed, not as wrong. On the fast link the selector must leave
// (nearly) every block uncompressed — if it does not, the workload no longer
// bypasses the codecs and its numbers mean something else.
func (w workloadDef) verdict(m *measured) bool {
	ok := m.wrong == 0
	if !ok {
		fmt.Fprintf(logw, "benchmark: %d blocks corrupt, repeated or out of order\n", m.wrong)
	}
	if share := m.layer["selector.method_share.none"]; share < w.minNoneShare {
		fmt.Fprintf(logw, "benchmark: selector.method_share.none = %.3f on %s, want >= %.2f\n", share, w.name, w.minNoneShare)
		ok = false
	}
	return ok
}

func runUntraced(cfg runConfig) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	m, err := w.run(cfg, realClock{base: time.Now()}, nil)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   w.verdict(m),
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   render(endToEnd, endToEndValues(m)),
	}, nil
}
