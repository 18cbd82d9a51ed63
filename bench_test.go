// Package ccx_test hosts the benchmark harness: one testing.B benchmark per
// table and figure of the paper, each delegating to internal/experiments.
// Benchmarks print the regenerated report once (first iteration) so that
// `go test -bench=.` doubles as a reproduction run; `cmd/ccbench` renders
// the same reports interactively.
package ccx_test

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/experiments"
	"ccx/internal/selector"
)

// benchOptions uses a mid-size scale: full MBone scenario, K=16.
func benchOptions() experiments.Options {
	return experiments.Options{TimeScale: 16}
}

var printOnce sync.Map

// runExperiment executes one registered experiment per iteration, rendering
// its report to stdout on the first run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
			fmt.Println()
			if err := report.Render(os.Stdout); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := report.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure1MethodTable(b *testing.B)          { runExperiment(b, "fig1") }
func BenchmarkFigure2CommercialRatios(b *testing.B)     { runExperiment(b, "fig2") }
func BenchmarkFigure3Times(b *testing.B)                { runExperiment(b, "fig3") }
func BenchmarkFigure4ReducingSpeed(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkFigure5LinkSpeeds(b *testing.B)           { runExperiment(b, "fig5") }
func BenchmarkFigure6MolecularRatios(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFigure7MBoneTrace(b *testing.B)           { runExperiment(b, "fig7") }
func BenchmarkFigure8CommercialAdaptation(b *testing.B) { runExperiment(b, "fig8") }
func BenchmarkFigure9CompressionTimes(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFigure10BlockSizes(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFigure11MolecularAdaptation(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFigure12MolecularBlockSizes(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkConclusionEndToEnd(b *testing.B)          { runExperiment(b, "conclusion") }

func BenchmarkAblationMethods(b *testing.B)    { runExperiment(b, "ablation-methods") }
func BenchmarkAblationThresholds(b *testing.B) { runExperiment(b, "ablation-thresholds") }
func BenchmarkAblationBlockSize(b *testing.B)  { runExperiment(b, "ablation-blocksize") }
func BenchmarkAblationProbeSize(b *testing.B)  { runExperiment(b, "ablation-probe") }
func BenchmarkAblationPolicies(b *testing.B)   { runExperiment(b, "ablation-policy") }

// BenchmarkFastLineBlock is the per-block fixed cost when the line outruns
// the codec — the benchmark's p2p_fastlink_16k in miniature: core.Writer
// (workers = GOMAXPROCS, as ccsend runs it) over an in-memory conn to
// core.Reader, 16 KiB blocks. probes/block is the share of blocks whose
// decision paid for a fresh sampling probe instead of reusing one.
func BenchmarkFastLineBlock(b *testing.B) {
	const blockSize = 16 << 10
	sel := selector.DefaultConfig()
	sel.BlockSize = blockSize
	e, err := core.NewEngine(core.Config{Selector: sel, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	send, recv := net.Pipe()
	defer send.Close()
	var probed atomic.Int64 // onBlock runs on the pipeline's sequencer goroutine
	w := core.NewWriter(send, e, func(r core.BlockResult) {
		if r.Decision.Inputs.ProbeAge == 0 {
			probed.Add(1)
		}
	})
	received := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, core.NewReader(recv, nil, nil))
		received <- err
	}()
	corpus := datagen.OISTransactions(64*blockSize, 0.9, 1)

	b.SetBytes(blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % 64) * blockSize
		if _, err := w.Write(corpus[off : off+blockSize]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	send.Close()
	if err := <-received; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(probed.Load())/float64(b.N), "probes/block")
}
