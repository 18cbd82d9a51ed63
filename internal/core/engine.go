// Package core is the paper's primary contribution: the configurable
// compression engine that IQ-ECho integrates. It glues together
//
//   - end-to-end goodput monitoring (internal/bwmon),
//   - concurrent Lempel-Ziv sampling probes (internal/sampling),
//   - the table-driven selection algorithm (internal/selector), and
//   - the compression method registry and framed wire format
//     (internal/codec),
//
// into a per-block adaptation loop that follows §2.5's pseudocode: take a
// 128 KB block, probe it, choose a method from the send-time/reducing-speed
// balance and the probe, compress, and send. The paper's forked probe of the
// next block lives on the pipeline workers (Config.Workers > 1).
//
// Two integration surfaces are provided: a transport-agnostic Session
// (used by the experiment harness over simulated links) and io.Writer/Reader
// adapters (used by the TCP tools and the broker). Anything else — the ECho
// channel handlers in internal/echo, say — drives an Engine through Encode
// and its goodput Monitor.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/bwmon"
	"ccx/internal/codec"
	"ccx/internal/sampling"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// Config assembles an Engine.
type Config struct {
	// Selector holds the decision thresholds and block size; zero value
	// means selector.DefaultConfig.
	Selector selector.Config
	// ProbeSize overrides the 4 KB sampling probe (0 = default).
	ProbeSize int
	// Alpha is the goodput EWMA weight (0 = bwmon.DefaultAlpha).
	Alpha float64
	// SpeedScale emulates a slower or loaded CPU by dividing measured
	// reducing speeds (0 or 1 = native speed).
	SpeedScale float64
	// Registry supplies codecs (nil = built-in methods).
	Registry *codec.Registry
	// Policy overrides the decision policy (nil = the paper's published
	// ratio algorithm over Selector's thresholds).
	Policy selector.Policy
	// Placement decides where compression runs relative to this engine's
	// hop. The zero value pins publisher-side (inline) compression —
	// exactly the pre-placement behavior. When the placement decision
	// offloads a block downstream, the engine bypasses Policy and ships
	// the block raw (Method None, Decision.Offloaded set).
	Placement selector.PlacementPolicy
	// Now supplies timestamps for probe and compression timing; nil means
	// time.Now. Experiments inject virtual clocks for determinism.
	Now func() time.Time
	// Workers sets the encode worker-pool size used by Session.Stream/
	// StreamBlocks, core.Writer, and each channel of the broker's encode
	// plane.
	// 0 or 1 keeps the sequential loop, one block at a time; >1 routes
	// blocks through a core.Pipeline, which probes and compresses them
	// concurrently while emitting frames strictly in block order.
	// Negative is invalid.
	Workers int
	// Telemetry wires the engine into the observability plane (histograms
	// and spans). The zero value disables all instrumentation at no
	// hot-path cost.
	Telemetry Telemetry
	// Limiter, when set, constrains the selector's method ladder under
	// resource pressure (the overload governor implements it). The policy
	// still runs per block with the paper's measurements; the limiter only
	// caps how expensive the outcome may be, and every demotion is surfaced
	// in Decision.Reason and the limiter's own accounting.
	Limiter MethodLimiter
}

// MethodLimiter is the engine's hook into process-wide CPU governance:
// CapMethod reports the heaviest permitted method (ok=false means no cap),
// and NoteDemoted observes each decision actually stepped down. Both are
// called per block and must be cheap and concurrency-safe.
// *governor.Governor implements it.
type MethodLimiter interface {
	CapMethod() (max codec.Method, cause string, ok bool)
	NoteDemoted(from, to codec.Method)
}

// Engine runs the adaptation loop. It is safe for concurrent use, though
// the paper's loop (and Session) is sequential per stream.
type Engine struct {
	sel    selector.Config
	policy selector.Policy
	plc    selector.PlacementPolicy
	reg    *codec.Registry
	mon    *bwmon.Monitor
	smp    *sampling.Sampler
	now    func() time.Time
	tel    Telemetry
	tx     *txInstruments // nil unless Telemetry.Metrics is set
	lim    MethodLimiter  // nil = ungoverned

	workers int
	// lastChoice is the previous block's (method, placement) as the tracer
	// saw it, 0 before the first: a change is recorded at any sampling rate.
	lastChoice atomic.Uint32

	gate probeGate
}

// The probe gate: §2.5 asks "is the line faster than any method's reducing
// speed?" before it needs the sample, and so does the engine. The predicted
// Lempel-Ziv reduce time of a block is its length times the probe's time per
// sampled byte (the sample's ratio cancels out of expected-reduction /
// reducing-speed), so the fastest time per byte any probe has shown bounds
// from below what a fresh probe could predict. While the predicted send time
// times gateMargin is still under SendVsReduce times that bound, no fresh
// probe can change the answer, and the block is decided from the remembered
// probe instead of a measured one. Only the floor still learns from a
// measurement, so the gate measures the blocks whose ordinal is a power of
// two: the floor becomes a minimum over several samples (seven in the first
// 127 blocks) and keeps being lowered log₂ N times over N blocks.
//
// gateMargin is how many times faster than the break-even the line must be:
// a fresh probe would have to beat the fastest one on record by this factor
// to change a send-vs-reduce answer.
const gateMargin = 4

// probeGate is the remembered measurement. Blocks are numbered as the gate
// sees them.
type probeGate struct {
	// off disables reuse: the policy samples every block. Set at build.
	off bool

	mu     sync.Mutex           // guards the fields below
	last   sampling.ProbeResult // the newest measured probe
	lastAt uint64               // ordinal of the block it was measured on
	// floor is the fastest Lempel-Ziv time per sampled byte seen, in
	// nanoseconds with SpeedScale applied; 0 until a probe has been timed.
	floor float64
	seen  uint64 // ordinal of the newest block decided
}

// NewEngine validates cfg and builds an Engine.
func NewEngine(cfg Config) (*Engine, error) {
	sel := cfg.Selector
	if sel == (selector.Config{}) {
		sel = selector.DefaultConfig()
	}
	if err := sel.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = codec.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	policy := cfg.Policy
	if policy == nil {
		policy = selector.RatioPolicy{Config: sel}
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	if err := cfg.Placement.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		sel:    sel,
		policy: policy,
		plc:    cfg.Placement,
		reg:    reg,
		mon:    bwmon.New(cfg.Alpha),
		smp: &sampling.Sampler{
			ProbeSize:  cfg.ProbeSize,
			SpeedScale: cfg.SpeedScale,
			Now:        now,
		},
		now:     now,
		tel:     cfg.Telemetry,
		workers: cfg.Workers,
		lim:     cfg.Limiter,
	}
	if p, ok := policy.(selector.PerBlockSampler); ok {
		e.gate.off = p.SamplesEveryBlock()
	}
	if cfg.Telemetry.Metrics != nil {
		e.tx = newTxInstruments(cfg.Telemetry.Metrics, reg)
	}
	return e, nil
}

// BlockSize returns the configured transmission block size.
func (e *Engine) BlockSize() int { return e.sel.BlockSize }

// Monitor exposes the goodput monitor (receivers' acceptance rate feeds it).
func (e *Engine) Monitor() *bwmon.Monitor { return e.mon }

// Registry exposes the codec registry, for runtime method deployment.
func (e *Engine) Registry() *codec.Registry { return e.reg }

// reuseProbe reports whether the next block, n bytes long, is decided from
// the remembered probe, and returns it aged and with no time spent. That
// needs the line to outrun the codec by gateMargin at the current goodput
// (never before the first goodput sample or the first timed probe) and the
// block's ordinal not to be a power of two. Otherwise the caller owes the
// gate a measure for the returned ordinal. A line that slows is therefore
// measured on the very block the margin stops holding for and on every
// block until it holds again, however long it was fast before.
func (e *Engine) reuseProbe(n int) (p sampling.ProbeResult, ordinal uint64, ok bool) {
	g := &e.gate
	if g.off || n == 0 {
		// Nothing to remember — the policy wants every sample, or there is
		// none (probing an empty block is free): measure with ordinal 0
		// leaves the gate as it was.
		return p, 0, false
	}
	send := float64(e.mon.SendTime(n))
	g.mu.Lock()
	defer g.mu.Unlock()
	k := g.seen + 1
	g.seen = k
	fast := g.floor > 0 && send > 0 &&
		send*gateMargin < e.sel.SendVsReduce*g.floor*float64(n)
	if fast && k&(k-1) != 0 {
		if e.tx != nil {
			e.tx.probesReused.Inc()
		}
		p = g.last
		p.Duration, p.Age = 0, int(k-g.lastAt)
		return p, 0, true
	}
	return p, k, false
}

// measure probes block, the gate's ordinal-th, and remembers the result
// (ordinal 0: a block the gate passed over, nothing is remembered).
func (e *Engine) measure(block []byte, ordinal uint64) sampling.ProbeResult {
	p := e.smp.Probe(block)
	if e.tx != nil {
		e.tx.probesMeasured.Inc()
	}
	if ordinal == 0 {
		return p
	}
	g := &e.gate
	g.mu.Lock()
	if ordinal > g.lastAt { // concurrent workers can finish out of order
		g.last, g.lastAt = p, ordinal
	}
	if p.Duration > 0 {
		perByte := float64(p.Duration) / float64(p.SampleLen)
		if scale := e.smp.SpeedScale; scale > 0 {
			perByte *= scale
		}
		if g.floor == 0 || perByte < g.floor {
			g.floor = perByte
		}
	}
	g.mu.Unlock()
	return p
}

// Probe measures block's sampling probe for a caller that decides from it
// with DecideProbed. It counts as a measured probe and leaves the probe gate
// as it was.
func (e *Engine) Probe(block []byte) sampling.ProbeResult { return e.measure(block, 0) }

// takeProbe reuses the remembered probe or measures block, as the gate
// decides.
func (e *Engine) takeProbe(block []byte) sampling.ProbeResult {
	p, ordinal, reuse := e.reuseProbe(len(block))
	if !reuse {
		p = e.measure(block, ordinal)
	}
	return p
}

// Decide selects the compression method for block from its probe, or from
// the remembered one while the probe gate holds.
func (e *Engine) Decide(block []byte) selector.Decision {
	return e.DecideProbed(e.mon, e.plc, len(block), e.takeProbe(block))
}

// DecideProbed selects a method for a block of blockLen bytes on the path
// whose goodput mon measures and whose placement plc decides, from an
// already-computed sampling probe. The probe depends only on the block's
// bytes, so the broker takes it once per block and every subscriber path
// decides from it with its own monitor and placement: the paper's per-path
// decision, with one engine for all paths.
//
// Placement runs first: when the policy offloads the block downstream,
// this hop ships it raw (Method None) and the method selector never runs —
// the downstream hop, seeing its own placement decision, compresses (or
// doesn't) with its own measurements.
func (e *Engine) DecideProbed(mon *bwmon.Monitor, plc selector.PlacementPolicy, blockLen int, probe sampling.ProbeResult) selector.Decision {
	in := selector.Inputs{
		BlockLen:      blockLen,
		SendTime:      mon.SendTime(blockLen),
		ProbeRatio:    probe.Ratio,
		ReducingSpeed: probe.ReducingSpeed,
		Entropy:       probe.Entropy,
		Repetition:    probe.Repetition,
		ProbeTime:     probe.Duration,
		ProbeAge:      probe.Age,
	}
	pl := plc.Decide(in)
	if !plc.Encodes(pl) {
		return selector.Decision{
			Method:       codec.None,
			Inputs:       in,
			LZReduceTime: in.LZReduceTime(),
			Placement:    pl,
			Offloaded:    true,
		}
	}
	d := e.policy.Select(in)
	d.Placement = pl
	if e.lim != nil && d.Method != codec.None {
		if max, cause, ok := e.lim.CapMethod(); ok && codec.CostRank(d.Method) > codec.CostRank(max) {
			d.Demoted, d.DemotedFrom, d.DemoteCause = true, d.Method, cause
			d.Method = max
			e.lim.NoteDemoted(d.DemotedFrom, max)
		}
	}
	return d
}

// BlockResult records one transmitted block for the experiment plots
// (Figures 8-12 all read these fields).
type BlockResult struct {
	// Index is the block's ordinal in the stream.
	Index int
	// Decision holds the selected method and its reasoning inputs.
	Decision selector.Decision
	// Info is the wire-level outcome (after any expansion fallback).
	Info codec.BlockInfo
	// CompressTime is the time spent compressing (scaled by SpeedScale).
	CompressTime time.Duration
	// SendTime is the measured transmission time of the frame.
	SendTime time.Duration
	// WireBytes is the full frame size on the wire, header included.
	WireBytes int
	// Workers is the encode-pool size that produced the block (1 = the
	// sequential loop, >1 = a core.Pipeline).
	Workers int
	// PipelineWait is how long the in-order sequencer stalled waiting for
	// this block's encode to finish (0 in the sequential loop; near-zero
	// when the pipeline is keeping up).
	PipelineWait time.Duration
}

// SendFunc transmits one encoded frame and reports how long the transfer
// took end to end. Implementations wrap sockets, simulated links, or pipes.
type SendFunc func(frame []byte) (time.Duration, error)

// Session drives the per-block loop over any transport. Not safe for
// concurrent use; create one per stream (matching the paper's one loop per
// data exchange).
type Session struct {
	e       *Engine
	scratch []byte // frame encode buffer, reused across blocks
	index   int
}

// NewSession returns a Session on the engine.
func NewSession(e *Engine) *Session {
	return &Session{e: e}
}

// Job is one block entering the per-block loop, with everything the caller
// may already know about it. The zero value of every field but Block means
// "the engine decides".
type Job struct {
	// Block is the data to send. It is not copied: the caller must leave it
	// untouched until the block's result has been reported.
	Block []byte
	// Seq, when HasSeq is set, is stamped into the frame as its per-channel
	// sequence number.
	Seq    uint64
	HasSeq bool
	// Method, when PreDecided is set, is used as is and Engine.Decide does
	// not run — the encode plane selects once per method class.
	Method     codec.Method
	PreDecided bool
	// Anno is the frame's annotation handed down from an upstream hop
	// (nil = none) and TC its parsed trace context. A block that arrives
	// with neither may be head-sampled and stamped by this engine.
	Anno []byte
	TC   tracing.Context
	// Ctx belongs to the caller: a Pipeline hands it back to the sink with
	// the finished frame and never looks inside.
	Ctx any
}

// stamp makes this engine the trace origin of a head-sampled block that
// nothing upstream annotated and no caller pre-decided: the block gets a
// fresh trace context in its annotation (and, lacking a sequence number, its
// ordinal as one, which is what this hop's and the receiver's spans of the
// block are matched by).
func (e *Engine) stamp(j *Job, index int) {
	tr := e.tel.Tracer
	if len(j.Anno) > 0 || j.PreDecided || !tr.Sample() {
		return
	}
	j.TC = tr.NewContext()
	if !j.HasSeq {
		j.Seq, j.HasSeq = uint64(index)+1, true
	}
	j.Anno = j.TC.AppendAnno(nil)
	tr.Record(tracing.Span{Trace: j.TC.Trace, Seq: j.Seq, Stream: e.tel.Stream, Stage: tracing.StageStamp, Start: j.TC.WallNs})
}

// Encode is the compress half of §2.5's loop body, the one place a block
// becomes a frame: decide (unless the job brings its method), append the
// frame to dst, and time it into res. The sequential Session, the pipeline
// workers, the event-channel handler and the encode plane's inline paths
// all call it.
func (e *Engine) Encode(dst []byte, j *Job, res *BlockResult) ([]byte, error) {
	if j.PreDecided {
		res.Decision = selector.Decision{Method: j.Method}
	} else {
		res.Decision = e.Decide(j.Block)
	}
	start := e.now()
	frame, info, err := codec.AppendFrameOpts(dst, e.reg, res.Decision.Method, j.Block,
		codec.FrameOpts{Seq: j.Seq, HasSeq: j.HasSeq, Anno: j.Anno})
	res.Info = info
	res.CompressTime = e.now().Sub(start)
	if scale := e.smp.SpeedScale; scale > 0 && scale != 1 {
		res.CompressTime = time.Duration(float64(res.CompressTime) * scale)
	}
	if err != nil {
		return frame, fmt.Errorf("core: encode block %d: %w", res.Index, err)
	}
	res.WireBytes = len(frame)
	return frame, nil
}

// transmit is the send half: put the frame on the wire and feed the
// realized outcome back into the goodput monitor and telemetry — the
// end-to-end feedback the next Decide consumes.
func (e *Engine) transmit(frame []byte, send SendFunc, j *Job, res *BlockResult) error {
	d, err := send(frame)
	if err != nil {
		return fmt.Errorf("core: send block %d: %w", res.Index, err)
	}
	res.SendTime = d
	e.mon.Observe(len(frame), d)
	e.recordTxSpans(j, res)
	e.ObserveBlock(*res)
	return nil
}

// TransmitBlock runs one iteration of §2.5's loop body for block, using
// send as the network: probe, decide, encode, send, and feed the send time
// back into the goodput monitor for the next block's decision.
//
// When the engine's telemetry carries a Tracer and the block is head-
// sampled, a trace context is stamped into the frame's annotation (the
// frame then also carries the block's ordinal as its sequence number) and
// the probe/decide/encode/write spans are recorded. Unsampled blocks carry
// neither; one whose method or placement differs from the block before
// still records its decide span.
func (s *Session) TransmitBlock(block []byte, send SendFunc) (BlockResult, error) {
	e := s.e
	res := BlockResult{Index: s.index, Workers: 1}
	s.index++
	job := Job{Block: block}
	e.stamp(&job, res.Index)
	frame, err := e.Encode(s.scratch[:0], &job, &res)
	s.scratch = frame
	if err != nil {
		return res, err
	}
	err = e.transmit(frame, send, &job, &res)
	return res, err
}

// Stream splits data into engine-sized blocks and transmits them all,
// returning per-block results. onBlock, when non-nil, observes each result
// as it completes (the experiment harness streams these into its series).
func (s *Session) Stream(data []byte, send SendFunc, onBlock func(BlockResult)) ([]BlockResult, error) {
	bs := s.e.BlockSize()
	var blocks [][]byte
	for off := 0; off < len(data); off += bs {
		end := off + bs
		if end > len(data) {
			end = len(data)
		}
		blocks = append(blocks, data[off:end])
	}
	return s.StreamBlocks(blocks, send, onBlock)
}

// StreamBlocks transmits pre-cut blocks in order. With Config.Workers > 1
// the blocks are compressed concurrently on a pipeline while frames still
// hit the wire strictly in block order; otherwise each block goes through
// TransmitBlock in turn.
func (s *Session) StreamBlocks(blocks [][]byte, send SendFunc, onBlock func(BlockResult)) ([]BlockResult, error) {
	if s.e.workers > 1 {
		return s.streamPipelined(blocks, send, onBlock)
	}
	results := make([]BlockResult, 0, len(blocks))
	for _, block := range blocks {
		res, err := s.TransmitBlock(block, send)
		if err != nil {
			return results, err
		}
		results = append(results, res)
		if onBlock != nil {
			onBlock(res)
		}
	}
	return results, nil
}
