package core

import (
	"fmt"
	"time"

	"ccx/internal/codec"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// Telemetry wires an adaptation loop into the observability plane. Both
// sinks are optional and nil by default: a zero Telemetry disables all
// instrumentation, and every hot-path hook is gated on a single nil check,
// so un-instrumented engines pay nothing.
type Telemetry struct {
	// Metrics receives latency/size/ratio histograms and method-mix
	// counters under "ccx.*" names (shared across engines on the same
	// registry, so distributions aggregate per process).
	Metrics *metrics.Registry
	// Stream labels this loop's spans ("send", "sub.3", ...).
	Stream string
	// Tracer records spans: the timing spans and the decide span of every
	// head-sampled block, and always a stream's first decision, every
	// change of method or placement, and anomalies. On a sending engine it
	// also owns the sampling decision: sampled blocks get a trace context
	// stamped into their frame annotation. nil disables tracing entirely.
	Tracer *tracing.Tracer
}

// enabled reports whether any sink is configured.
func (t Telemetry) enabled() bool { return t.Metrics != nil || t.Tracer != nil }

// txInstruments are the send-side metrics, resolved once at engine build
// so the per-block path touches only atomics.
type txInstruments struct {
	encodeLat      *metrics.Histogram      // ccx.encode_seconds
	sendLat        *metrics.Histogram      // ccx.send_seconds
	blockIn        *metrics.Histogram      // ccx.tx_block_bytes (original)
	wireOut        *metrics.Histogram      // ccx.tx_wire_bytes (frame)
	blocks         *metrics.Counter        // ccx.tx_blocks
	fallbacks      *metrics.Counter        // ccx.tx_fallbacks
	probesMeasured *metrics.Counter        // ccx.tx_probes_measured
	probesReused   *metrics.Counter        // ccx.tx_probes_reused
	pipeDepth      *metrics.Gauge          // ccx.pipeline_depth (blocks in flight)
	pipeWait       *metrics.Histogram      // ccx.pipeline_wait_seconds
	windowWait     *metrics.Histogram      // ccx.window_wait_seconds
	ratio          [256]*metrics.Histogram // ccx.ratio.<method>
	methods        [256]*metrics.Counter   // ccx.tx_method.<method>

	placements [selector.NumPlacements]*metrics.Counter // ccx.tx_placement.<name>
}

// newTxInstruments resolves the send-side metric set against reg. The
// per-method slots cover every codec registered at engine build; methods
// deployed afterwards still count in the aggregate histograms but skip the
// per-method views.
func newTxInstruments(reg *metrics.Registry, codecs *codec.Registry) *txInstruments {
	ins := &txInstruments{
		encodeLat:      reg.Histogram("ccx.encode_seconds", metrics.LatencyBuckets),
		sendLat:        reg.Histogram("ccx.send_seconds", metrics.LatencyBuckets),
		blockIn:        reg.Histogram("ccx.tx_block_bytes", metrics.SizeBuckets),
		wireOut:        reg.Histogram("ccx.tx_wire_bytes", metrics.SizeBuckets),
		blocks:         reg.Counter("ccx.tx_blocks"),
		fallbacks:      reg.Counter("ccx.tx_fallbacks"),
		probesMeasured: reg.Counter("ccx.tx_probes_measured"),
		probesReused:   reg.Counter("ccx.tx_probes_reused"),
		pipeDepth:      reg.Gauge("ccx.pipeline_depth"),
		pipeWait:       reg.Histogram("ccx.pipeline_wait_seconds", metrics.LatencyBuckets),
		windowWait:     reg.Histogram("ccx.window_wait_seconds", metrics.LatencyBuckets),
	}
	for _, m := range codecs.Methods() {
		ins.ratio[m] = reg.Histogram(fmt.Sprintf("ccx.ratio.%s", m), metrics.RatioBuckets)
		ins.methods[m] = reg.Counter(fmt.Sprintf("ccx.tx_method.%s", m))
	}
	for p := selector.Placement(0); p < selector.NumPlacements; p++ {
		ins.placements[p] = reg.Counter(fmt.Sprintf("ccx.tx_placement.%s", p))
	}
	return ins
}

// ObserveBlock feeds one transmitted block into the engine's metrics:
// histograms for encode/send latency, block and wire sizes, per-method
// realized ratio. No-op without a registry.
//
// Session.TransmitBlock calls this for every block; the broker calls it for
// every block a subscriber path writes, on the one engine that decides for
// all of its paths.
func (e *Engine) ObserveBlock(res BlockResult) {
	ins := e.tx
	if ins == nil {
		return
	}
	ins.blocks.Inc()
	ins.encodeLat.ObserveDuration(res.CompressTime)
	if res.SendTime > 0 {
		ins.sendLat.ObserveDuration(res.SendTime)
	}
	ins.blockIn.Observe(float64(res.Info.OrigLen))
	ins.wireOut.Observe(float64(res.WireBytes))
	if res.Info.Fallback {
		ins.fallbacks.Inc()
	}
	if h := ins.ratio[res.Info.Method]; h != nil {
		h.Observe(res.Info.Ratio())
	}
	if c := ins.methods[res.Info.Method]; c != nil {
		c.Inc()
	}
	if pl := res.Decision.Placement; pl.Valid() {
		ins.placements[pl].Inc()
	}
}

// DecisionAttrs words one block's decision for a decide or migrate span:
// the inputs the selector saw beside the realized outcome, and the goodput
// of the path the block was decided for.
func DecisionAttrs(res *BlockResult, goodput float64) *tracing.Decision {
	in := res.Decision.Inputs
	return &tracing.Decision{
		BlockLen:     in.BlockLen,
		GoodputBps:   goodput,
		ProbeRatio:   in.ProbeRatio,
		ProbeAge:     in.ProbeAge,
		ReduceSpeed:  in.ReducingSpeed,
		Entropy:      in.Entropy,
		Repetition:   in.Repetition,
		PredSendNs:   int64(in.SendTime),
		PredReduceNs: int64(res.Decision.LZReduceTime),
		Reason:       res.Decision.Reason(),
		Ratio:        res.Info.Ratio(),
		Fallback:     res.Info.Fallback,
		Workers:      res.Workers,
	}
}

// recordTxSpans appends one sent block's spans. A head-sampled block gets
// the whole set — probe, decide, encode, pipe-wait, write — reconstructed
// backwards from the wall clock right after the write returned using the
// measured phase durations, so the unsampled hot path takes no timestamp.
// An unsampled block gets its decide span alone, and only when it is the
// stream's first or its method or placement differs from the block before:
// a switch is recorded at any sampling rate.
func (e *Engine) recordTxSpans(j *Job, res *BlockResult) {
	tr := e.tel.Tracer
	if tr == nil {
		return
	}
	tc, seq := j.TC, j.Seq
	if !j.HasSeq {
		seq = uint64(res.Index) + 1 // what stamp gives a sampled block
	}
	choice := 1<<16 | uint32(res.Decision.Method)<<8 | uint32(res.Decision.Placement)
	switched := e.lastChoice.Swap(choice) != choice
	if !tc.Valid() && !switched {
		return
	}
	endNs := time.Now().UnixNano()
	wr := int64(res.SendTime)
	wait := int64(res.PipelineWait) // sequencer stall; 0 on the sequential loop
	enc := int64(res.CompressTime)
	probe := int64(res.Decision.Inputs.ProbeTime)
	method := res.Info.Method.String()
	placement := res.Decision.Placement.String()
	base := tracing.Span{Trace: tc.Trace, Seq: seq, Stream: e.tel.Stream, Method: method, Placement: placement}

	s := base
	if tc.Valid() && probe > 0 { // a reused (or pre-decided) block spent no time probing
		s.Stage, s.Start, s.Dur = tracing.StageProbe, endNs-wr-wait-enc-probe, probe
		tr.Record(s)
		s = base
	}
	// The decision sits where the probe ends and the encode starts, with no
	// length of its own: the critical path reads as it did without it.
	s.Stage, s.Start, s.Anomaly = tracing.StageDecide, endNs-wr-wait-enc, switched
	s.Decision = DecisionAttrs(res, e.mon.Goodput())
	tr.Record(s)
	if !tc.Valid() {
		return
	}
	s = base
	s.Stage, s.Start, s.Dur, s.Bytes = tracing.StageEncode, endNs-wr-wait-enc, enc, res.WireBytes
	tr.Record(s)
	if wait > 0 {
		s = base
		s.Stage, s.Start, s.Dur = tracing.StagePipeWait, endNs-wr-wait, wait
		tr.Record(s)
	}
	s = base
	s.Stage, s.Start, s.Dur, s.Bytes = tracing.StageWrite, endNs-wr, wr, res.WireBytes
	tr.Record(s)
}

// rxInstruments are the receive-side metrics, resolved by SetTelemetry.
// The per-method counters fill lazily; the Reader is sequential (one
// goroutine), so the array needs no synchronization.
type rxInstruments struct {
	decodeLat *metrics.Histogram // ccx.decode_seconds
	wireIn    *metrics.Histogram // ccx.rx_wire_bytes
	blockOut  *metrics.Histogram // ccx.rx_block_bytes
	blocks    *metrics.Counter   // ccx.rx_blocks
	corrupt   *metrics.Counter   // ccx.rx_corrupt_frames
	dups      *metrics.Counter   // ccx.rx_dup_frames
	gapEvents *metrics.Counter   // ccx.rx_gap_events
	gapBlocks *metrics.Counter   // ccx.rx_gap_blocks
	methods   [256]*metrics.Counter
}

// SetTelemetry instruments the Reader: every decoded block observes the
// decode-latency and size histograms (and, arriving annotated, records a
// decode span); every corrupt frame offered to the corrupt handler bumps
// ccx.rx_corrupt_frames and records a resync span documenting the skipped
// block. Call before the first Read; pass a zero Telemetry to disable.
func (r *Reader) SetTelemetry(t Telemetry) {
	r.tel = t
	if t.Metrics == nil {
		r.rx = nil
		return
	}
	r.rx = &rxInstruments{
		decodeLat: t.Metrics.Histogram("ccx.decode_seconds", metrics.LatencyBuckets),
		wireIn:    t.Metrics.Histogram("ccx.rx_wire_bytes", metrics.SizeBuckets),
		blockOut:  t.Metrics.Histogram("ccx.rx_block_bytes", metrics.SizeBuckets),
		blocks:    t.Metrics.Counter("ccx.rx_blocks"),
		corrupt:   t.Metrics.Counter("ccx.rx_corrupt_frames"),
		dups:      t.Metrics.Counter("ccx.rx_dup_frames"),
		gapEvents: t.Metrics.Counter("ccx.rx_gap_events"),
		gapBlocks: t.Metrics.Counter("ccx.rx_gap_blocks"),
	}
}

// observeBlock records one successfully decoded block.
func (r *Reader) observeBlock(info codec.BlockInfo) {
	if ins := r.rx; ins != nil {
		ins.blocks.Inc()
		ins.decodeLat.ObserveDuration(info.DecodeTime)
		ins.wireIn.Observe(float64(info.CompLen))
		ins.blockOut.Observe(float64(info.OrigLen))
		c := ins.methods[info.Method]
		if c == nil {
			c = r.tel.Metrics.Counter(fmt.Sprintf("ccx.rx_method.%s", info.Method))
			ins.methods[info.Method] = c
		}
		c.Inc()
	}
	if tr := r.tel.Tracer; tr != nil && len(info.Anno) > 0 {
		if tc := tracing.ParseAnno(info.Anno); tc.Valid() {
			now := time.Now().UnixNano()
			tr.Record(tracing.Span{
				Trace:      tc.Trace,
				Seq:        info.Seq,
				Stream:     r.tel.Stream,
				Stage:      tracing.StageDecode,
				Start:      now - int64(info.DecodeTime),
				Dur:        int64(info.DecodeTime),
				OriginWall: tc.WallNs,
				Method:     info.Method.String(),
				Bytes:      info.CompLen,
			})
		}
	}
}

// observeDup records one replayed duplicate the delivery tracker
// suppressed: counted and traced (always on), never delivered.
func (r *Reader) observeDup(info codec.BlockInfo) {
	if r.rx != nil {
		r.rx.dups.Inc()
	}
	if tr := r.tel.Tracer; tr != nil {
		tr.Record(tracing.Span{
			Trace:   tracing.ParseAnno(info.Anno).Trace,
			Seq:     info.Seq,
			Stream:  r.tel.Stream,
			Stage:   tracing.StageDup,
			Start:   time.Now().UnixNano(),
			Anomaly: true,
		})
	}
}

// observeGap records a sequence discontinuity: blocks blocks are known
// lost immediately before the frame carrying seq.
func (r *Reader) observeGap(seq, blocks uint64) {
	if r.rx != nil {
		r.rx.gapEvents.Inc()
		r.rx.gapBlocks.Add(int64(blocks))
	}
	if tr := r.tel.Tracer; tr != nil {
		tr.Record(tracing.Span{
			Seq:     seq,
			Stream:  r.tel.Stream,
			Stage:   tracing.StageGap,
			Start:   time.Now().UnixNano(),
			Bytes:   int(blocks),
			Anomaly: true,
		})
	}
}

// observeCorrupt records one corrupt frame the reader skipped via resync.
func (r *Reader) observeCorrupt(err error) {
	if r.rx != nil {
		r.rx.corrupt.Inc()
	}
	if tr := r.tel.Tracer; tr != nil {
		tr.Record(tracing.Span{
			Seq:     uint64(r.seq) + 1, // the damaged frame's ordinal on this stream
			Stream:  r.tel.Stream,
			Stage:   tracing.StageResync,
			Start:   time.Now().UnixNano(),
			Err:     err.Error(),
			Anomaly: true,
		})
	}
}
