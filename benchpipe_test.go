package ccx_test

import (
	"runtime"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// The pipeline benchmarks measure the encode path in isolation — fixed
// method, discarded output — so the numbers track compression throughput
// and pipeline overhead, not adaptive-policy choices or network speed.
const (
	pipeBlockSize = 64 << 10
	pipeCorpusLen = 64 * pipeBlockSize // 4 MiB per iteration
)

// lzPolicy pins every block to Lempel-Ziv, the workhorse method, making
// run-to-run and machine-to-machine comparisons meaningful.
type lzPolicy struct{}

func (lzPolicy) Name() string { return "bench-lz" }
func (lzPolicy) Select(in selector.Inputs) selector.Decision {
	return selector.Decision{Method: codec.LempelZiv, Inputs: in}
}

// pipeCorpus mixes the paper's two compressible workloads (OIS
// transactions, XML) so LZ has realistic match structure to chew on.
func pipeCorpus() []byte {
	data := make([]byte, 0, pipeCorpusLen)
	data = append(data, datagen.OISTransactions(pipeCorpusLen/2, 0.9, 21)...)
	data = append(data, datagen.XMLDocuments(pipeCorpusLen-len(data), 22)...)
	return data
}

func pipeEngine(tb testing.TB, workers int) *core.Engine {
	cfg := selector.DefaultConfig()
	cfg.BlockSize = pipeBlockSize
	e, err := core.NewEngine(core.Config{Selector: cfg, Policy: lzPolicy{}, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func benchmarkPipeline(b *testing.B, workers int) {
	data := pipeCorpus()
	e := pipeEngine(b, workers)
	blocks := (len(data) + pipeBlockSize - 1) / pipeBlockSize
	discard := func([]byte) (time.Duration, error) { return 0, nil }
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSession(e)
		if _, err := s.Stream(data, discard, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

func BenchmarkPipeline1Workers(b *testing.B) { benchmarkPipeline(b, 1) }
func BenchmarkPipeline4Workers(b *testing.B) { benchmarkPipeline(b, 4) }
func BenchmarkPipelineNWorkers(b *testing.B) { benchmarkPipeline(b, runtime.GOMAXPROCS(0)) }

// ---- tracing-overhead benchmarks ----

// benchmarkTransmitTraced measures the sequential per-block transmit cost
// with metrics on and the span plane at the given sampling rate (rate < 0
// leaves the tracer off — the PR 3 "telemetry=on" baseline).
func benchmarkTransmitTraced(b *testing.B, rate float64) {
	cfg := selector.DefaultConfig()
	cfg.BlockSize = pipeBlockSize
	tel := core.Telemetry{Metrics: metrics.NewRegistry(), Stream: "bench"}
	if rate >= 0 {
		tel.Tracer = tracing.New("bench", rate, 4096)
	}
	e, err := core.NewEngine(core.Config{Selector: cfg, Policy: lzPolicy{}, Telemetry: tel})
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSession(e)
	block := datagen.OISTransactions(pipeBlockSize, 0.9, 23)
	send := func([]byte) (time.Duration, error) { return 0, nil }
	b.SetBytes(pipeBlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TransmitBlock(block, send); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransmitTracedOff(b *testing.B)    { benchmarkTransmitTraced(b, -1) }
func BenchmarkTransmitTraced1Pct(b *testing.B)   { benchmarkTransmitTraced(b, 0.01) }
func BenchmarkTransmitTracedAlways(b *testing.B) { benchmarkTransmitTraced(b, 1) }
