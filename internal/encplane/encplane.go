// Package encplane is the broker's shared encode plane: it groups a
// channel's subscribers into method classes (same channel, same
// currently-selected compression method) and encodes each (block, method)
// pair exactly once, fanning the resulting immutable, reference-counted
// frame out to every queue in the class.
//
// The paper selects a compression method per *path*, and the naive broker
// realization runs the whole engine — probe, selection, encode — once per
// subscriber. But the expensive parts don't depend on the subscriber at
// all: the 4 KB sampling probe depends only on the block, and the encoded
// frame depends only on (block, method, sequence), because sequence
// numbers are per channel. Only the *selection* is per path (it consumes
// the subscriber's own goodput EWMA), and selection is a handful of float
// comparisons. So the loop splits:
//
//	per block:              one probe, taken by the publisher (Block.Probe);
//	per (block, method):    one encode, one refcounted frame (this package);
//	per subscriber:         selection, queueing, send, goodput feedback.
//
// Broker encode CPU therefore scales with the number of distinct methods in
// use (at most the registry size), not with subscriber count — the property
// cmd/ccswarm measures.
//
// The plane knows methods only. It neither probes nor selects, and where a
// path compresses is the path's own decision: one that offloads compression
// downstream selects None and shares the None class with everyone else.
//
// Distinct (block, method) pairs encode concurrently on a per-channel
// core.Pipeline whose in-order sequencer preserves the channel's delivery
// order: each member sees a subsequence of the channel's blocks, so every
// subscriber's sequence stream stays strictly monotonic through class
// migrations. Each channel keeps one bounded retention window of its recent
// blocks, and every frame encoded from a block stays beside it there, so
// resume replays and migrated dequeues are served without re-encoding — a
// reconnect storm after a network blip costs one encode per method, not one
// per returning subscriber.
package encplane

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/metrics"
	"ccx/internal/sampling"
	"ccx/internal/tracing"
)

// Config assembles a Plane.
type Config struct {
	// Engine supplies the registry, clock and speed scale the plane's encode
	// pipelines run with. Telemetry is ignored (the plane emits its own
	// encplane.* instrumentation); the engine that decides for subscriber
	// paths stays outside the plane, owned by the broker.
	Engine core.Config
	// Workers sets each channel pipeline's encode pool (<= 0: GOMAXPROCS).
	Workers int
	// WindowBlocks and WindowBytes bound each channel's retention window, in
	// blocks and in raw payload bytes (0 = DefaultWindowBlocks and
	// DefaultWindowBytes).
	WindowBlocks int
	WindowBytes  int64
	// Metrics receives encplane.* and chan.<name>.* instrumentation
	// (nil = a private registry).
	Metrics *metrics.Registry
	// Tracer records an encode span (stream "encplane") for each block
	// whose frame annotation carries a trace context — with the class
	// label, why the class was encoded and how many subscribers shared it —
	// and a cache-hit span when a replay or migration is served from the
	// window. nil disables.
	Tracer *tracing.Tracer
	// Logf logs encode failures (nil = silent).
	Logf func(format string, args ...any)
	// PipeWait, when non-nil, observes each encoded block's pipeline
	// head-of-line wait — the overload governor's CPU-saturation signal
	// (governor.NotePipeWait). Called on the sequencer; must be cheap.
	PipeWait func(time.Duration)
}

// Plane owns the per-channel encode state. Create with New.
type Plane struct {
	met    *metrics.Registry
	tracer *tracing.Tracer
	logf   func(string, ...any)

	engine    *core.Engine // shared by every channel pipeline
	workers   int
	winBlocks int   // configured window bound in blocks
	winBytes  int64 // configured window bound in payload bytes
	pipeWait  func(time.Duration)
	liveBytes atomic.Int64 // wire bytes across all live shared frames

	bufs sync.Pool // *[]byte frame buffers, shared across channels

	encodes    *metrics.Counter
	encBytes   *metrics.Counter
	deliveries *metrics.Counter
	hits       *metrics.Counter
	misses     *metrics.Counter
	evictions  *metrics.Counter
	migrations *metrics.Counter
	errors     *metrics.Counter
	framesLive *metrics.Gauge
	encLat     *metrics.Histogram

	// mu guards the channel map and the pressure factor, and is held while
	// SetPressure rescales the windows (so it is taken before Channel.mu).
	mu     sync.Mutex
	chans  map[string]*Channel
	factor float64 // pressure scale of the window bounds (SetPressure)
	closed bool
}

// New validates cfg and builds a Plane.
func New(cfg Config) (*Plane, error) {
	if cfg.WindowBlocks < 0 || cfg.WindowBytes < 0 {
		return nil, fmt.Errorf("encplane: negative replay window bounds (%d blocks, %d bytes)",
			cfg.WindowBlocks, cfg.WindowBytes)
	}
	if cfg.WindowBlocks == 0 {
		cfg.WindowBlocks = DefaultWindowBlocks
	}
	if cfg.WindowBytes == 0 {
		cfg.WindowBytes = DefaultWindowBytes
	}
	ecfg := cfg.Engine
	ecfg.Telemetry = core.Telemetry{}
	engine, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, fmt.Errorf("encplane: engine: %w", err)
	}
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Plane{
		met:       met,
		tracer:    cfg.Tracer,
		logf:      logf,
		engine:    engine,
		workers:   cfg.Workers,
		winBlocks: cfg.WindowBlocks,
		winBytes:  cfg.WindowBytes,
		pipeWait:  cfg.PipeWait,

		encodes:    met.Counter("encplane.encodes"),
		encBytes:   met.Counter("encplane.encoded_bytes"),
		deliveries: met.Counter("encplane.deliveries"),
		hits:       met.Counter("encplane.cache_hits"),
		misses:     met.Counter("encplane.cache_misses"),
		evictions:  met.Counter("encplane.cache_evictions"),
		migrations: met.Counter("encplane.migrations"),
		errors:     met.Counter("encplane.errors"),
		framesLive: met.Gauge("encplane.frames_live"),
		encLat:     met.Histogram("encplane.encode_seconds", metrics.LatencyBuckets),

		chans:  make(map[string]*Channel),
		factor: 1,
	}
	p.bufs.New = func() any { return new([]byte) }
	return p, nil
}

// LiveFrames reports how many shared frames currently hold references —
// zero after every member left, the windows were purged, and all deliveries
// were released. The churn race test asserts on this.
func (p *Plane) LiveFrames() int64 { return p.framesLive.Value() }

// LiveBytes reports the total wire bytes held by live shared frames across
// every channel — queued, kept in a window, or in flight.
func (p *Plane) LiveBytes() int64 { return p.liveBytes.Load() }

// HeldBytes is the aggregate-bytes ledger the overload governor samples:
// LiveBytes plus the raw payload bytes every channel's window retains.
func (p *Plane) HeldBytes() int64 {
	total := p.LiveBytes()
	for _, c := range p.channels() {
		c.mu.Lock()
		total += c.win.bytes
		c.mu.Unlock()
	}
	return total
}

// SetPressure rescales every channel's window bounds to the configured ones
// times factor, clamped below at the pressure floors — the memory-pressure
// degradation knob. Below factor 1 the windows keep no frames. Shrinking
// evicts immediately (oldest first); factor 1 restores the configured
// bounds. A factor already in force changes nothing, so a sampler may call
// it on every sample. Channels created later start at the current scale.
func (p *Plane) SetPressure(factor float64) {
	p.mu.Lock()
	if factor == p.factor {
		p.mu.Unlock()
		return
	}
	p.factor = factor
	var evicted int
	for _, c := range p.chans {
		c.mu.Lock()
		c.win.scale(factor)
		evicted += c.win.dropBlocks
		c.unlockWindow()
	}
	p.mu.Unlock()
	p.logf("encplane: memory pressure scaled the replay windows to %.0f%% (shrink evicted %d blocks)", factor*100, evicted)
}

// channels snapshots the channel map.
func (p *Plane) channels() []*Channel {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Channel, 0, len(p.chans))
	for _, c := range p.chans {
		out = append(out, c)
	}
	return out
}

// Channel returns (creating on first use) the named channel's encode state.
func (p *Plane) Channel(name string) *Channel {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.chans[name]; ok {
		return c
	}
	c := &Channel{
		p:            p,
		name:         name,
		members:      make(map[*Member]struct{}),
		classCount:   make(map[codec.Method]int),
		classesGauge: p.met.Gauge(fmt.Sprintf("chan.%s.classes", name)),
		queuedBytes:  p.met.Gauge(fmt.Sprintf("chan.%s.queued_bytes", name)),
		queuedHWM:    p.met.Gauge(fmt.Sprintf("chan.%s.queued_bytes_hwm", name)),
		depthBlocks:  p.met.Gauge(fmt.Sprintf("chan.%s.replay_blocks", name)),
		depthBytes:   p.met.Gauge(fmt.Sprintf("chan.%s.replay_bytes", name)),
	}
	c.win.baseBlocks, c.win.baseBytes = p.winBlocks, p.winBytes
	c.win.scale(p.factor)
	if p.closed {
		// Born closed: a publisher that raced Close onto a channel nobody
		// used before is refused like any other, and no pipeline is started
		// that nothing would ever stop.
		c.pipeClosed = true
	} else {
		c.pipe = core.NewPipeline(p.engine, p.workers, &p.bufs, c.sink)
	}
	p.chans[name] = c
	return c
}

// Close flushes and stops every channel pipeline and purges the windows.
// In-flight blocks are still delivered to their classes before the
// corresponding pipelines wind down.
func (p *Plane) Close() error {
	p.mu.Lock()
	closed := p.closed
	p.closed = true
	p.mu.Unlock()
	if closed {
		return nil
	}
	for _, c := range p.channels() {
		c.close()
	}
	return nil
}

// Channel is one named channel's encode state: method classes, the encode
// pipeline, and the retention window.
type Channel struct {
	p    *Plane
	name string

	// mu guards membership and the window. It is a leaf lock: nothing is
	// called while holding it that can block on the pipeline, so publishers
	// and the delivery sequencer never deadlock against joins, leaves, or
	// migrations.
	mu         sync.Mutex
	members    map[*Member]struct{}
	classCount map[codec.Method]int // members per method; len = live classes
	win        window

	// pipeMu serializes pipeline submissions (Publish) against close —
	// core.Pipeline's Submit/Close are single-owner calls. Membership
	// operations never take it.
	pipeMu     sync.Mutex
	pipeClosed bool
	pipe       *core.Pipeline

	liveBytes    atomic.Int64
	classesGauge *metrics.Gauge // chan.<name>.classes
	queuedBytes  *metrics.Gauge // chan.<name>.queued_bytes (once per class)
	queuedHWM    *metrics.Gauge // chan.<name>.queued_bytes_hwm
	depthBlocks  *metrics.Gauge // chan.<name>.replay_blocks
	depthBytes   *metrics.Gauge // chan.<name>.replay_bytes
}

// Block is one stamped block as a publisher hands it to the plane.
type Block struct {
	// Data is the original block. The plane and every consumer share it
	// read-only; it feeds EncodeCached when a consumer migrated after
	// publish.
	Data []byte
	// Seq is the block's channel sequence number.
	Seq uint64
	// Anno is the block's frame annotation, stamped into every class's
	// frame, so a publisher's trace context survives the broker hop.
	Anno []byte
	// Probe is the block's sampling probe, taken once by the publisher. The
	// plane never reads it; it rides along to every Delivery, where a
	// member's own goodput monitor combines with it into the paper's
	// per-path selection inputs (the broker passes both to
	// core.Engine.DecideProbed).
	Probe sampling.ProbeResult
}

// publication is what one Publish shares across its per-method encode
// jobs: the membership snapshot, the block's probe and the publish time. It
// rides through the pipeline as Job.Ctx (the block, sequence number, method,
// annotation and trace context are Job fields already) and is read-only once
// the first job is submitted.
type publication struct {
	classes map[codec.Method][]*Member
	probe   sampling.ProbeResult
	at      time.Time
}

// Delivery hands one shared frame to a member's queue. The receiver owns
// one frame reference and must Release it exactly once — after writing,
// dropping, or tearing down.
//
// The frame was encoded with the method the member had selected at publish
// time. A consumer that has since migrated (its queue backlog outlived a
// selection change) re-evaluates at dequeue and swaps the frame through
// EncodeCached — so selection timing is identical to a per-subscriber
// encode loop, while the steady state still encodes once per class.
type Delivery struct {
	// Block is the published block.
	Block
	// Frame is the shared encoded frame, holding one reference for the
	// consumer. A consumer may also run blocks of its own through the same
	// path with Frame nil and fetch each from EncodeCached (the broker's
	// resume backlog does).
	Frame *Frame
	// At is when the block was published (queue-wait accounting).
	At time.Time
	// TC is Anno's parsed trace context: consumers record queue/write spans
	// against it.
	TC tracing.Context
}

// DeliverFunc enqueues one delivery. It must not block; returning false
// refuses the delivery and returns the frame reference to the plane.
type DeliverFunc func(Delivery) bool

// Member is one subscriber's membership in a channel's method classes.
type Member struct {
	ch      *Channel
	deliver DeliverFunc
	method  codec.Method // guarded by ch.mu
	left    bool         // guarded by ch.mu
}

// Join adds a member with an initial method (the paper's first-block
// convention is None). Publishes after Join include the member; blocks
// already in flight do not — they predate the join and, when the caller is
// resuming, are covered by the window instead (ReplayFrom).
func (c *Channel) Join(m codec.Method, deliver DeliverFunc) *Member {
	mb := &Member{ch: c, deliver: deliver, method: m}
	c.mu.Lock()
	c.members[mb] = struct{}{}
	c.classDelta(m, +1)
	c.mu.Unlock()
	return mb
}

// Migrate moves the member to the method's class. The move is atomic with
// respect to publishes: each publish snapshots membership once, so a
// migrating member lands in exactly one class per block — no block is
// duplicated or dropped across the migration.
func (m *Member) Migrate(to codec.Method) {
	c := m.ch
	c.mu.Lock()
	if m.left || m.method == to {
		c.mu.Unlock()
		return
	}
	c.classDelta(m.method, -1)
	c.classDelta(to, +1)
	m.method = to
	c.mu.Unlock()
	c.p.migrations.Inc()
}

// Leave removes the member. Frames already delivered to its queue remain
// owned by the caller (release them on teardown); publishes snapshotted
// before Leave may still offer deliveries, which the member's DeliverFunc
// must refuse.
func (m *Member) Leave() {
	c := m.ch
	c.mu.Lock()
	if m.left {
		c.mu.Unlock()
		return
	}
	m.left = true
	delete(c.members, m)
	c.classDelta(m.method, -1)
	c.mu.Unlock()
}

// classDelta maintains the per-class membership count and the
// chan.<name>.classes gauge incrementally — O(1) per join, migration, and
// leave, so a 10k-subscriber migration storm never rescans membership.
// Caller holds c.mu.
func (c *Channel) classDelta(k codec.Method, d int) {
	n := c.classCount[k] + d
	if n <= 0 {
		delete(c.classCount, k)
	} else {
		c.classCount[k] = n
	}
	c.classesGauge.Set(int64(len(c.classCount)))
}

// Publish fans one stamped block out: retain it in the window, snapshot the
// method classes and submit one pre-decided encode job per distinct method.
// The block is retained even when nobody subscribes. Delivery happens
// asynchronously on the pipeline's in-order sequencer. The caller
// serializes Publish per channel (the broker holds its channel-state lock),
// which satisfies the pipeline's single-owner submit contract.
//
// After the channel's first block, each must carry the next sequence number
// (the window finds a block by its distance from the oldest).
//
// It reports whether the plane accepted the block: false for a block out of
// turn, and once the channel is closed, so a publisher that lost the race
// with Close learns its block will never be delivered. A block nobody
// subscribes to, or whose encode fails (logged and counted), is still
// accepted.
func (c *Channel) Publish(data []byte, seq uint64) bool {
	return c.PublishBlock(Block{Data: data, Seq: seq})
}

// PublishBlock is Publish for a block carrying an annotation or a probe.
func (c *Channel) PublishBlock(b Block) bool {
	// pipeMu orders the whole publish — the closed check and the pipeline
	// submits — against close.
	c.pipeMu.Lock()
	defer c.pipeMu.Unlock()
	if c.pipeClosed {
		return false
	}
	// Retention and the membership snapshot share one hold of mu, so a
	// resume snapshot (ReplayFrom) taken with a Join splits the stream
	// exactly when the caller serializes both against Publish.
	c.mu.Lock()
	if !c.win.push(b) {
		c.mu.Unlock()
		return false
	}
	var classes map[codec.Method][]*Member
	if len(c.members) > 0 {
		classes = make(map[codec.Method][]*Member, 4)
		for m := range c.members {
			classes[m.method] = append(classes[m.method], m)
		}
	}
	c.unlockWindow()
	if classes == nil {
		return true
	}

	job := core.Job{Block: b.Data, Seq: b.Seq, HasSeq: true, PreDecided: true, Anno: b.Anno, TC: tracing.ParseAnno(b.Anno),
		Ctx: &publication{classes: classes, probe: b.Probe, at: time.Now()}}
	for method := range classes {
		job.Method = method
		if err := c.pipe.Submit(job); err != nil {
			c.p.errors.Inc()
			c.p.logf("encplane: %s: submit %s: %v", c.name, method, err)
			return true
		}
	}
	return true
}

// sink receives each pipeline-encoded frame, in submission order, on the
// sequencer goroutine, and keeps its buffer: the shared Frame is built
// directly on it and the buffer returns to the plane's pool on the frame's
// last Release.
func (c *Channel) sink(enc core.Encoded) (bool, error) {
	if c.p.pipeWait != nil {
		c.p.pipeWait(enc.Result.PipelineWait)
	}
	c.keep(c.admit(enc.Buf, &enc.Job, &enc.Result, "encoded once for the class"))
	return true, nil
}

// admit turns one freshly encoded buffer into a shared Frame and is the one
// place such a frame is accounted: encode counters and latency, fan-out to
// the members its publication snapshotted for the job's method (an on-demand
// encode has no publication and fans out to nobody), and the encode span,
// which says why the class was encoded. The caller holds the returned
// frame's creator reference.
func (c *Channel) admit(buf *[]byte, j *core.Job, res *core.BlockResult, reason string) *Frame {
	p := c.p
	f := c.newFrame(buf, j.Seq, j.Method, res.Info)
	p.encodes.Inc()
	p.misses.Inc()
	p.encBytes.Add(int64(f.Len()))
	p.encLat.ObserveDuration(res.CompressTime)

	d := Delivery{Block: Block{Data: j.Block, Seq: j.Seq, Anno: j.Anno}, Frame: f, TC: j.TC}
	var members []*Member
	if pub, ok := j.Ctx.(*publication); ok {
		members, d.Probe, d.At = pub.classes[j.Method], pub.probe, pub.at
	}
	var delivered int64
	for _, mb := range members {
		f.Retain()
		if mb.deliver(d) {
			delivered++
		} else {
			f.Release()
		}
	}
	p.deliveries.Add(delivered)
	if tr := p.tracer; tr != nil && j.TC.Valid() {
		tr.Record(tracing.Span{
			Trace:      j.TC.Trace,
			Seq:        j.Seq,
			Stream:     "encplane",
			Stage:      tracing.StageEncode,
			Start:      time.Now().UnixNano() - res.CompressTime.Nanoseconds(),
			Dur:        res.CompressTime.Nanoseconds(),
			OriginWall: j.TC.WallNs,
			Method:     f.info.Method.String(),
			Class:      c.name + "/" + j.Method.String(),
			Bytes:      f.Len(),
			Decision: &tracing.Decision{
				BlockLen:  len(j.Block),
				Reason:    reason,
				Ratio:     f.info.Ratio(),
				Fallback:  f.info.Fallback,
				Workers:   res.Workers,
				ClassSubs: len(members),
			},
		})
	}
	return f
}

// EncodeCached returns the (seq, method) frame, serving it from the window
// when the block's entry holds one and encoding synchronously otherwise.
// The caller owns one frame reference. Resume replays and post-migration
// dequeues use this: however many subscribers need the same (block, method)
// pair, it is encoded at most once while the block stays in the window.
func (c *Channel) EncodeCached(data []byte, seq uint64, m codec.Method, anno []byte) (*Frame, error) {
	job := core.Job{Block: data, Seq: seq, HasSeq: true, Method: m, PreDecided: true, Anno: anno, TC: tracing.ParseAnno(anno)}
	c.mu.Lock()
	if _, f := c.win.lookup(seq, m); f != nil {
		f.Retain()
		c.mu.Unlock()
		c.p.hits.Inc()
		if tr := c.p.tracer; tr != nil && job.TC.Valid() {
			tr.Record(tracing.Span{
				Trace:      job.TC.Trace,
				Seq:        seq,
				Stream:     "encplane",
				Stage:      tracing.StageEncode,
				Start:      time.Now().UnixNano(),
				OriginWall: job.TC.WallNs,
				Method:     f.info.Method.String(),
				Class:      c.name + "/" + m.String(),
				CacheHit:   true,
				Bytes:      f.Len(),
			})
		}
		return f, nil
	}
	c.mu.Unlock()

	buf := c.p.bufs.Get().(*[]byte)
	res := core.BlockResult{Workers: 1}
	frame, err := c.p.engine.Encode((*buf)[:0], &job, &res)
	*buf = frame
	if err != nil {
		c.p.bufs.Put(buf)
		c.p.errors.Inc()
		return nil, err
	}
	f := c.admit(buf, &job, &res, "encoded on demand (replay or migration)")
	f.Retain() // the caller's reference
	c.keep(f)  // transfers the creator reference
	return f, nil
}

// ReplayFrom resolves a resume from lastSeq against the window (see
// window.replayFrom). Serialized against Publish and followed by Join, it
// hands every block to exactly one of the replay and the live stream.
func (c *Channel) ReplayFrom(lastSeq uint64) (replay []Block, firstSeq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.win.replayFrom(lastSeq)
}

// LiveBytes reports this channel's live shared-frame wire bytes. Frame
// accounting updates the channel and plane totals together (noteBytes), so
// per-channel values summed across channels equal Plane.LiveBytes exactly.
func (c *Channel) LiveBytes() int64 { return c.liveBytes.Load() }

// keep hands the caller's frame reference to its block's window entry, or
// releases it when the block has left the window, its entry already holds
// a frame for the method, or the window is pressed.
func (c *Channel) keep(f *Frame) {
	c.mu.Lock()
	e, dup := c.win.lookup(f.seq, f.method)
	kept := e != nil && dup == nil && !c.win.pressed
	if kept {
		e.frames = append(e.frames, f)
	}
	c.mu.Unlock()
	if !kept {
		f.Release()
	}
}

// unlockWindow ends a hold of c.mu that changed the window: it updates the
// window gauges, unlocks, and then releases what the change evicted,
// counting each frame as an encplane.cache_evictions and each block (and
// its payload bytes) under the broker.replay_evicted_* names.
func (c *Channel) unlockWindow() {
	w := &c.win
	drop, blocks, bytes := w.drop, w.dropBlocks, w.dropBytes
	w.drop, w.dropBlocks, w.dropBytes = nil, 0, 0
	c.depthBlocks.Set(int64(w.len()))
	c.depthBytes.Set(w.bytes)
	c.mu.Unlock()
	if blocks > 0 {
		c.p.met.Counter("broker.replay_evicted_blocks").Add(int64(blocks))
		c.p.met.Counter("broker.replay_evicted_bytes").Add(bytes)
	}
	c.p.evictions.Add(int64(len(drop)))
	for _, f := range drop {
		f.Release()
	}
}

// close flushes the pipeline (in-flight blocks still reach their classes)
// and purges the window.
func (c *Channel) close() {
	c.pipeMu.Lock()
	closed := c.pipeClosed
	c.pipeClosed = true
	c.pipeMu.Unlock()
	if closed {
		return
	}
	if err := c.pipe.Close(); err != nil {
		c.p.logf("encplane: %s: close: %v", c.name, err)
	}
	c.mu.Lock()
	purged := c.win.purge()
	c.mu.Unlock()
	for _, f := range purged {
		f.Release()
	}
}
