package main

import (
	"errors"
	"fmt"
	"time"

	"ccx/internal/codec"
)

// referenceShare is the part of a traced run's --seconds spent on an
// untraced pass of the same workload: the base trace.overhead_share is
// measured against, in the same process on the same inputs.
const referenceShare = 0.3

var errCorruptReplay = errors.New("layer replay: decoded block differs from its input")

// runTraced runs an untraced reference pass, then the traced pass with the
// timing wrappers installed, writes the spans and the layer table, and runs
// the layer replays.
func runTraced(cfg runConfig, dir string) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	clk := realClock{base: time.Now()}
	refCfg := cfg
	refCfg.measure = time.Duration(float64(cfg.measure) * referenceShare)
	ref, err := w.run(refCfg, clk, nil)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	cfg.measure -= refCfg.measure
	rec := newRecorder(clk)
	m, err := w.run(cfg, clk, rec)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	spans := rec.spans()
	if err := writeTrace(dir, spans, rec.dropped, m.win); err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintf(logw, "benchmark: %d spans, layer table in %s\n", len(spans), dir)

	v := m.layer
	spanLayerValues(v, spans, m.win, !w.brokered)
	refE2E, e2e := endToEndValues(ref), endToEndValues(m)
	if base := refE2E["delivered_mb_s"]; base > 0 {
		v["trace.overhead_share"] = 1 - e2e["delivered_mb_s"]/base
	}
	if base := refE2E["cpu_s_per_gb"]; base > 0 {
		v["trace.cpu_overhead_share"] = e2e["cpu_s_per_gb"]/base - 1
	}
	if m.blocksSent > 0 {
		v["go.allocs_per_block"] = float64(m.res[1].mallocs-m.res[0].mallocs) / float64(m.blocksSent)
	}
	v["go.gc_pause_ms_p99"] = tailOf(gcPausesMs(m.res[0], m.res[1]), 0.99)
	v["go.heap_peak_mb"] = float64(m.res[1].heapSys) / 1e6
	v["oracle.failed_share"] = float64(m.failed+ref.failed) / float64(m.attempted+ref.attempted)
	for _, b := range m.latency {
		v["oracle.latency_samples"] += float64(b.Count)
	}
	v["oracle.latency_p99_ms"] = binnedQuantile(m.latency, 0.99)

	blocks := replayInput(newCorpus(cfg.seed, w.blockSize))
	for _, c := range []struct {
		prefix string
		method codec.Method
	}{{"lz", codec.LempelZiv}, {"bwt", codec.BurrowsWheeler}, {"huffman", codec.Huffman}} {
		if err := replayCodec(c.prefix, c.method, blocks, v); err != nil {
			return nil, fmt.Errorf("%s replay: %w", c.prefix, err)
		}
	}
	if err := replayFraming(blocks, v); err != nil {
		return nil, fmt.Errorf("framing replay: %w", err)
	}
	replayProbe(blocks, v)
	if w.brokered {
		if err := replayEncplane(blocks, v); err != nil {
			return nil, fmt.Errorf("encplane replay: %w", err)
		}
	}
	return &result{
		Correct:   w.verdict(ref) && w.verdict(m),
		Attempted: ref.attempted + m.attempted,
		Failed:    ref.failed + m.failed,
		Metrics:   render(perLayer, v),
	}, nil
}

// spanLayerValues derives the per-layer values that come from spans which
// started inside the window. closedLoop says the sender hands over blocks
// back to back, so its goroutine's time is the run's blocking path; an
// open-loop sender mostly sleeps and has no such path to attribute.
func spanLayerValues(v map[string]float64, spans []span, win window, closedLoop bool) {
	cover := childCover(spans)
	durMs := make(map[string][]float64)
	selfUs := make(map[string][]float64)
	busy := make(map[string]int64)
	var path, attributed []interval // on the sender's side of the first hop
	for _, s := range spans {
		if !win.has(s.Start) {
			continue
		}
		durMs[s.Name] = append(durMs[s.Name], float64(s.dur())/1e6)
		busy[s.Name] += s.dur()
		if s.Name == spanTxWrite || s.Name == spanRxRead {
			selfUs[s.Name] = append(selfUs[s.Name], float64(selfTime(s, cover))/1e3)
		}
		if s.Lane != laneSender {
			continue
		}
		iv := interval{s.Start, s.End}
		switch s.Name {
		case spanTxWrite:
			path = append(path, iv)
		case spanPrepare:
			path = append(path, iv)
			attributed = append(attributed, iv)
		default:
			attributed = append(attributed, iv)
		}
	}
	wall := float64(win.to - win.from)
	v["codec.encode_busy_share"] = float64(busy[spanCompress]) / wall
	v["codec.decode_busy_share"] = float64(busy[spanDecompress]) / wall
	v["codec.encode_ms_p50"] = median(durMs[spanCompress])
	v["codec.decode_ms_p50"] = median(durMs[spanDecompress])
	v["selector.decide_ns_p50"] = median(durMs[spanSelect]) * 1e6
	v["core.tx_self_us_p50"] = median(selfUs[spanTxWrite])
	v["core.rx_self_us_p50"] = median(selfUs[spanRxRead])
	// The sender's blocking path is the time its goroutine spends preparing
	// blocks or inside Writer.Write. While it is blocked there, some span on
	// its side (probe, select, compress, conn write) should be running;
	// what none of them covers is time the seams cannot explain.
	path, attributed = mergeIntervals(path), mergeIntervals(attributed)
	if total := totalLen(path); closedLoop && total > 0 {
		v["trace.unattributed_share"] = 1 - float64(intersectLen(path, attributed))/float64(total)
	}
}
