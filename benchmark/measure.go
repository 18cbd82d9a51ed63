package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/metrics"
)

// warmup is how long every workload runs before the measured window opens,
// so the goodput EWMA, pools and caches have settled. It is fixed: results
// taken with different warm-ups are not comparable.
const warmup = 3 * time.Second

// runConfig is one invocation's arguments, and the warm-up, which only the
// tests shorten.
type runConfig struct {
	workload string
	seed     int64
	warmup   time.Duration
	measure  time.Duration
}

// setupRepeats is how many times a run sets the topology up; setup_s is
// the median, so neither the page-fault-heavy first set-up nor a burst of
// interference during one of them decides it.
const setupRepeats = 15

// repeatSetup sets a topology up setupRepeats times, tearing down all but
// the last, and returns the last with every set-up's duration in seconds.
// A collection runs before each, so one set-up's garbage is not collected on
// the next one's clock.
func repeatSetup[T interface{ close() }](setup func() (T, error)) (T, []float64, error) {
	var rig T
	var seconds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		r, err := setup()
		if err != nil {
			return rig, nil, fmt.Errorf("set-up: %w", err)
		}
		seconds = append(seconds, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			r.close()
			continue
		}
		rig = r
	}
	return rig, seconds, nil
}

// latencyLimitMs is the latency limit the open-loop workloads are judged
// against (ladder rung "ok", over_limit_share).
const latencyLimitMs = 250.0

// drainTimeout bounds the wait for receivers to hold the last block.
const drainTimeout = 30 * time.Second

// window is the measured stretch of a run, in run-clock nanoseconds, cut
// into equal bins. The latency percentiles are medians over the bins, so a
// disturbance that hits one stretch of a run (a burst from a noisy
// neighbour, a long collection) does not decide the result.
type window struct {
	from, to int64
	bins     int
}

// newWindow cuts [from, from+length) into bins of about a second, a whole
// number of them per part when the window has parts (ladder rungs).
func newWindow(from int64, length time.Duration, parts int) window {
	perPart := int(length.Seconds()/float64(parts) + 0.5)
	if perPart < 1 {
		perPart = 1
	}
	return window{from: from, to: from + int64(length), bins: parts * perPart}
}

func (w window) has(t int64) bool { return t >= w.from && t < w.to }
func (w window) seconds() float64 { return float64(w.to-w.from) / 1e9 }

// bin is the index of the bin that holds instant t, which must be inside
// the window.
func (w window) bin(t int64) int {
	return int((t - w.from) * int64(w.bins) / (w.to - w.from))
}

// sink is the accounting behind one receiver: the oracle plus what was
// delivered inside the window. One receiver goroutine owns it; highest is
// the only field others read while the run is live.
type sink struct {
	or  *oracle
	clk realClock
	win window

	// attachedAt is when the current connection finished its handshake. A
	// block stamped earlier was not delivered live on this connection (it
	// was replayed, or cut off by a disconnect) and gives no latency sample.
	attachedAt int64

	bytesInWindow int64 // verified bytes that arrived inside the window
	// latency is per bin, by the instant it is timed from; fixed in size
	// from the start (see newHist).
	latency []*metrics.Histogram
	highest atomic.Uint64
}

func newSink(c *corpus, clk realClock, win window) *sink {
	s := &sink{or: newOracle(c), clk: clk, win: win, latency: make([]*metrics.Histogram, win.bins)}
	for i := range s.latency {
		s.latency[i] = newHist()
	}
	return s
}

// accept verifies one decoded block and accounts it.
func (s *sink) accept(data []byte) (seq uint64, fresh bool) {
	now := int64(s.clk.Now())
	seq, stamp, fresh := s.or.observe(data)
	if !fresh {
		return seq, false
	}
	if s.win.has(now) {
		s.bytesInWindow += int64(len(data))
	}
	if stamp >= s.attachedAt && s.win.has(stamp) {
		s.latency[s.win.bin(stamp)].Observe(float64(now-stamp) / 1e6)
	}
	s.highest.Store(seq)
	return seq, true
}

// waitFor blocks until the sink holds block seq or the timeout passes.
func (s *sink) waitFor(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.highest.Load() < seq {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// drain reads decoded blocks from rd until the stream ends, one block per
// Read (the system's receive path), checking each against the sink. On a
// traced run every Read is a span, and rx carries its ID to the spans
// recorded underneath it. each, when non-nil, runs after every block.
func drain(rd *core.Reader, blockSize int, sk *sink, rec *recorder, rx *rxScope, each func()) error {
	buf := make([]byte, blockSize)
	for {
		if rx != nil {
			rx.cur = rec.reserve()
		}
		start := rec.now()
		n, err := rd.Read(buf)
		if err != nil {
			return err
		}
		seq, _ := sk.accept(buf[:n])
		if rx != nil {
			rec.add(span{ID: rx.cur, Name: spanRxRead, Lane: laneReceiver, Seq: seq, Start: start, End: rec.now()})
		}
		if each != nil {
			each()
		}
	}
}

// sendBlock stamps block seq into blk and hands it to the Writer, recording
// the generator's and the Write's spans on a traced run. It returns how long
// the Write call took.
func sendBlock(w *core.Writer, c *corpus, blk []byte, seq uint64, stampNs int64, rec *recorder) (time.Duration, error) {
	prepStart := rec.now()
	c.fill(blk, seq, stampNs)
	start, spanStart := time.Now(), rec.now()
	_, err := w.Write(blk)
	took := time.Since(start)
	if rec != nil {
		rec.add(span{Name: spanPrepare, Lane: laneSender, Seq: seq, Start: prepStart, End: spanStart})
		rec.add(span{ID: txWriteID(seq), Name: spanTxWrite, Lane: laneSender, Seq: seq, Start: spanStart, End: rec.now()})
	}
	return took, err
}

// txStats is what the sender's per-block callback (core.BlockResult, the
// same hook ccsend's -v uses) yields inside the window.
type txStats struct {
	firstSeq atomic.Uint64 // first block sent inside the window (0 = not yet)

	blocks    int64
	appBytes  int64
	wireBytes int64
	methods   map[codec.Method]int64
	switches  int64
	last      codec.Method
	sendBusy  time.Duration // blocked in the conn Write
	probeBusy time.Duration
	pipeWait  *metrics.Histogram // ms
}

func newTxStats() *txStats {
	return &txStats{methods: make(map[codec.Method]int64), pipeWait: newHist()}
}

// onBlock is the core.Writer callback. It runs on one goroutine (the
// pipeline sequencer), in block order.
func (t *txStats) onBlock(r core.BlockResult) {
	first := t.firstSeq.Load()
	if first == 0 || uint64(r.Index)+1 < first {
		t.last = r.Info.Method
		return
	}
	t.blocks++
	t.appBytes += int64(r.Info.OrigLen)
	t.wireBytes += int64(r.WireBytes)
	t.methods[r.Info.Method]++
	if r.Info.Method != t.last {
		t.switches++
		t.last = r.Info.Method
	}
	t.sendBusy += r.SendTime
	t.probeBusy += r.Decision.Inputs.ProbeTime
	t.pipeWait.Observe(ms(r.PipelineWait))
}

// resources is a snapshot of process-wide cost counters.
type resources struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	numGC    uint32
	heapSys  uint64
	pauseNs  [256]uint64
	maxRSSKB int64
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return resources{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  m.Mallocs,
		numGC:    m.NumGC,
		heapSys:  m.HeapSys,
		pauseNs:  m.PauseNs,
		maxRSSKB: ru.Maxrss,
	}
}

// gcPausesMs lists the stop-the-world pauses of the collections between two
// snapshots (the runtime keeps the most recent 256).
func gcPausesMs(before, after resources) []float64 {
	n := after.numGC - before.numGC
	if n > 256 {
		n = 256
	}
	out := make([]float64, 0, n)
	for i := uint32(0); i < n; i++ {
		gc := after.numGC - i // 1-based ordinal of the collection
		out = append(out, float64(after.pauseNs[(gc+255)%256])/1e6)
	}
	return out
}

// windowSampler snapshots resources at the window's edges.
type windowSampler struct {
	before, after resources
	done          chan struct{}
}

// startWindowSampler snapshots at win.from and win.to; atEdge, when non-nil,
// runs right after each snapshot (edge 0 and 1) on the sampler's goroutine.
func startWindowSampler(clk realClock, win window, atEdge func(edge int)) *windowSampler {
	ws := &windowSampler{done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		for edge, at := range []int64{win.from, win.to} {
			clk.SleepUntil(time.Duration(at))
			if edge == 0 {
				ws.before = readResources()
			} else {
				ws.after = readResources()
			}
			if atEdge != nil {
				atEdge(edge)
			}
		}
	}()
	return ws
}

// measured is what a workload run hands back for reporting.
type measured struct {
	win    window
	setupS []float64
	res    [2]resources

	deliveredBytes int64 // verified at receivers inside the window, all receivers summed
	// latency holds the bins the end-to-end percentiles are taken over.
	latency    []metrics.HistogramSnapshot
	appBytes   int64 // application bytes behind wireBytes
	wireBytes  int64
	blocksSent int64 // inside the window
	attempted  int64 // deliveries attempted over the whole run
	failed     int64
	wrong      int64 // of failed: corrupt, repeated or out of order

	layer map[string]float64 // per-layer values known to the workload
}

// addSink folds one receiver's per-bin accounting into the run's. latBins
// selects the bins whose latency feeds the end-to-end percentiles.
func (m *measured) addSink(s *sink, latBins []int) {
	if m.latency == nil {
		m.latency = make([]metrics.HistogramSnapshot, len(latBins))
	}
	m.deliveredBytes += s.bytesInWindow
	for i, bin := range latBins {
		m.latency[i] = mergeHists(m.latency[i], s.latency[bin].Snapshot())
	}
	o := s.or
	m.failed += o.failed()
	m.wrong += o.corrupt + o.duplicate
}
