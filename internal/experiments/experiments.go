// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the §5 end-to-end totals. Each FigureN function
// returns a Report whose tables/series mirror the rows the paper plots;
// cmd/ccbench renders them and bench_test.go wraps them as benchmarks.
//
// # Scaling model
//
// The paper's testbed (Sun-Fire 280R, 2003-era links) is reproduced by a
// documented scaling substitution rather than by hoping modern hardware
// behaves like 2003 hardware:
//
//   - Links are simulated (internal/netsim) at the paper's measured rates
//     divided by TimeScale K, with the paper's jitter.
//   - The adaptive-run timeline charges compression at the paper's measured
//     per-method speeds (paperCompressBps) divided by K.
//   - The engine's sampling probe is scaled so Lempel-Ziv reducing speed
//     lands at the paper's Figure 4 value divided by K.
//
// Dividing both network and CPU rates by the same K leaves every ratio the
// selector consumes — and therefore every decision and every reported
// virtual duration — invariant, while shrinking the data volume (and hence
// wall-clock cost) by K. Reported times are directly comparable to the
// paper's.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"ccx/internal/arith"
	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/netsim"
	"ccx/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// TimeScale is K in the scaling model (0 = default 8). Larger K runs
	// faster with coarser time series.
	TimeScale float64
	// Seed drives all synthetic data and jitter (0 = default 1).
	Seed int64
	// TraceSeconds shortens the 160 s MBone scenario for quick runs
	// (0 = full 160).
	TraceSeconds float64
	// DataBytes overrides the microbenchmark dataset size (0 = 4 MiB).
	DataBytes int
}

func (o Options) withDefaults() Options {
	if o.TimeScale <= 0 {
		o.TimeScale = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TraceSeconds <= 0 {
		o.TraceSeconds = 160
	}
	if o.DataBytes <= 0 {
		o.DataBytes = 4 << 20
	}
	return o
}

// Quick returns options sized for unit tests and smoke runs.
func Quick() Options {
	return Options{TimeScale: 32, TraceSeconds: 40, DataBytes: 1 << 20}
}

// Report is one regenerated table/figure.
type Report struct {
	ID     string
	Title  string
	Tables []stats.Table
	Series []Series
	Notes  []string
}

// Series is a time/value series (the line charts of Figures 7-12).
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Points []Point
}

// Point is one series sample.
type Point struct {
	X, Y float64
}

// RenderCSV writes the report's tables and series as CSV, one section per
// table/series separated by blank lines — convenient for plotting the
// figures with external tools.
func (r *Report) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, tbl := range r.Tables {
		if err := cw.Write(append([]string{"table"}, tbl.Columns...)); err != nil {
			return err
		}
		for _, row := range tbl.Rows {
			if err := cw.Write(append([]string{tbl.Title}, row...)); err != nil {
				return err
			}
		}
	}
	for _, s := range r.Series {
		if err := cw.Write([]string{"series", s.XLabel, s.YLabel}); err != nil {
			return err
		}
		for _, p := range s.Points {
			if err := cw.Write([]string{
				s.Title,
				strconv.FormatFloat(p.X, 'f', 6, 64),
				strconv.FormatFloat(p.Y, 'f', 6, 64),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render writes the report as text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for i := range r.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := r.Tables[i].Render(w); err != nil {
			return err
		}
	}
	const maxRendered = 200
	for _, s := range r.Series {
		if _, err := fmt.Fprintf(w, "\n%s  (%s vs %s)\n", s.Title, s.YLabel, s.XLabel); err != nil {
			return err
		}
		step := 1
		if len(s.Points) > maxRendered {
			step = (len(s.Points) + maxRendered - 1) / maxRendered
			if _, err := fmt.Fprintf(w, "(showing every %dth of %d samples)\n", step, len(s.Points)); err != nil {
				return err
			}
		}
		for i := 0; i < len(s.Points); i += step {
			p := s.Points[i]
			if _, err := fmt.Fprintf(w, "%12.3f %12.3f\n", p.X, p.Y); err != nil {
				return err
			}
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig1", "Qualitative method characteristics (Figure 1)", Figure1},
		{"fig2", "Compression ratios, commercial data (Figure 2)", Figure2},
		{"fig3", "Compression/decompression times (Figure 3)", Figure3},
		{"fig4", "Reducing speed per CPU (Figure 4)", Figure4},
		{"fig5", "Link transfer speeds (Figure 5)", Figure5},
		{"fig6", "Compression ratios, molecular data (Figure 6)", Figure6},
		{"fig7", "MBone connection trace (Figure 7)", Figure7},
		{"fig8", "Method selection over time, commercial (Figure 8)", Figure8},
		{"fig9", "Compression time over time, commercial (Figure 9)", Figure9},
		{"fig10", "Compressed block sizes, commercial (Figure 10)", Figure10},
		{"fig11", "Method selection over time, molecular (Figure 11)", Figure11},
		{"fig12", "Compressed block sizes, molecular (Figure 12)", Figure12},
		{"conclusion", "End-to-end totals (Section 5)", Conclusion},
		{"ablation-methods", "Fixed methods vs adaptive across links", AblationMethods},
		{"ablation-thresholds", "Selection threshold sensitivity", AblationThresholds},
		{"ablation-blocksize", "Block size sweep", AblationBlockSize},
		{"ablation-probe", "Sampling probe size sweep", AblationProbeSize},
		{"ablation-policy", "Selection policy comparison", AblationPolicies},
	}
}

// Run dispatches by experiment ID.
func Run(id string, o Options) (*Report, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r.Run(o)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (try one of %v)", id, IDs())
}

// IDs lists registered experiment identifiers.
func IDs() []string {
	rs := Registry()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// paperMethods lists the four methods in the paper's figure order.
func paperMethods() []codec.Method {
	return []codec.Method{codec.BurrowsWheeler, codec.LempelZiv, codec.Arithmetic, codec.Huffman}
}

// paperCodecs is the built-in registry plus arithmetic coding, the one
// paper method no policy picks: the figures that compare all four register
// it here.
var paperCodecs = func() *codec.Registry {
	reg := codec.NewRegistry()
	reg.Register(codec.NewFuncCodec(codec.Arithmetic, arith.Compress, arith.Decompress))
	return reg
}()

// compress encodes data with method m from paperCodecs.
func compress(m codec.Method, data []byte) ([]byte, error) {
	c, err := paperCodecs.Get(m)
	if err != nil {
		return nil, err
	}
	return c.Compress(data)
}

// commercialData builds the OIS transaction workload (§4's commercial set).
func commercialData(o Options) []byte {
	return datagen.OISTransactions(o.DataBytes, 0.9, o.Seed)
}

// scaleProfile divides a link profile's rate by K (latency multiplied by K
// to preserve its relative weight).
func scaleProfile(p netsim.Profile, k float64) netsim.Profile {
	p.RateBps /= k
	p.Latency = time.Duration(float64(p.Latency) * k)
	return p
}
