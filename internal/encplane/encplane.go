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
// migrations. Encoded frames also land in a bounded per-channel cache keyed
// by (sequence, method), which resume replays hit instead of re-encoding —
// a reconnect storm after a network blip costs one encode per method, not
// one per returning subscriber.
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

// DefaultCacheBytes bounds each channel's encoded-frame cache when the
// configuration leaves it zero. It matches the broker's default replay-ring
// byte budget, so a resume inside the replay window usually hits the cache.
const DefaultCacheBytes = 8 << 20

// Config assembles a Plane.
type Config struct {
	// Engine supplies the registry, clock and speed scale the plane's encode
	// pipelines run with. Telemetry is ignored (the plane emits its own
	// encplane.* instrumentation); the engine that decides for subscriber
	// paths stays outside the plane, owned by the broker.
	Engine core.Config
	// Workers sets each channel pipeline's encode pool (<= 0: GOMAXPROCS).
	Workers int
	// CacheBytes bounds each channel's frame cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// Metrics receives encplane.* and chan.<name>.* instrumentation
	// (nil = a private registry).
	Metrics *metrics.Registry
	// Tracer records an encode span (stream "encplane") for each block
	// whose frame annotation carries a trace context — with the class
	// label, why the class was encoded and how many subscribers shared it —
	// and a cache-hit span when a replay or migration is served from the
	// frame cache. nil disables.
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

	engine     *core.Engine // shared by every channel pipeline
	workers    int
	cacheBytes int64        // configured per-channel cache budget
	effCache   atomic.Int64 // pressure-scaled budget new channels start from
	pipeWait   func(time.Duration)
	liveBytes  atomic.Int64 // wire bytes across all live shared frames

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

	mu     sync.Mutex
	chans  map[string]*Channel
	closed bool
}

// New validates cfg and builds a Plane.
func New(cfg Config) (*Plane, error) {
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("encplane: negative cache budget %d", cfg.CacheBytes)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
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
		met:        met,
		tracer:     cfg.Tracer,
		logf:       logf,
		engine:     engine,
		workers:    cfg.Workers,
		cacheBytes: cfg.CacheBytes,
		pipeWait:   cfg.PipeWait,

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

		chans: make(map[string]*Channel),
	}
	p.bufs.New = func() any { return new([]byte) }
	p.effCache.Store(cfg.CacheBytes)
	return p, nil
}

// LiveFrames reports how many shared frames currently hold references —
// zero after every member left, the cache was purged, and all deliveries
// were released. The churn race test asserts on this.
func (p *Plane) LiveFrames() int64 { return p.framesLive.Value() }

// LiveBytes reports the total wire bytes held by live shared frames across
// every channel — queued, cached, or in flight. The overload governor's
// queued-bytes source sums this with the broker's replay rings.
func (p *Plane) LiveBytes() int64 { return p.liveBytes.Load() }

// SetCacheScale rescales every channel's frame-cache budget to
// configured*factor, clamped below at floor — the memory-pressure
// degradation knob. Shrinking evicts immediately (oldest first); factor 1
// restores the configured budget. Channels created later inherit the
// current scaled budget.
func (p *Plane) SetCacheScale(factor float64, floor int64) {
	if factor <= 0 {
		factor = 1
	}
	budget := int64(float64(p.cacheBytes) * factor)
	if budget < floor {
		budget = floor
	}
	if budget > p.cacheBytes {
		budget = p.cacheBytes
	}
	p.effCache.Store(budget)
	p.mu.Lock()
	chans := make([]*Channel, 0, len(p.chans))
	for _, c := range p.chans {
		chans = append(chans, c)
	}
	p.mu.Unlock()
	for _, c := range chans {
		c.mu.Lock()
		c.cache.maxBytes = budget
		evicted := c.cache.trimTo(budget)
		c.mu.Unlock()
		for _, f := range evicted {
			p.evictions.Inc()
			f.Release()
		}
	}
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
	}
	c.cache.maxBytes = p.effCache.Load()
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

// Close flushes and stops every channel pipeline and purges the frame
// caches. In-flight blocks are still delivered to their classes before the
// corresponding pipelines wind down.
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	chans := make([]*Channel, 0, len(p.chans))
	for _, c := range p.chans {
		chans = append(chans, c)
	}
	p.mu.Unlock()
	for _, c := range chans {
		c.close()
	}
	return nil
}

// Channel is one named channel's encode state: method classes, the encode
// pipeline, and the frame cache.
type Channel struct {
	p    *Plane
	name string

	// mu guards membership and the frame cache. It is a leaf lock: nothing
	// is called while holding it that can block on the pipeline, so
	// publishers and the delivery sequencer never deadlock against joins,
	// leaves, or migrations.
	mu         sync.Mutex
	members    map[*Member]struct{}
	classCount map[codec.Method]int // members per method; len = live classes
	cache      frameCache

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
// resuming, are covered by the replay window instead.
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

// Publish fans one stamped block out: snapshot the method classes and
// submit one pre-decided encode job per distinct method. Delivery happens
// asynchronously on the pipeline's in-order sequencer. The caller
// serializes Publish per channel (the broker holds its channel-state lock),
// which satisfies the pipeline's single-owner submit contract.
//
// It reports whether the plane accepted the block: false only once the
// channel is closed, so a publisher that lost the race with Close learns
// its block will never be delivered. A block nobody subscribes to, or whose
// encode fails (logged and counted), is still accepted.
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
	c.mu.Lock()
	if len(c.members) == 0 {
		c.mu.Unlock()
		return true
	}
	classes := make(map[codec.Method][]*Member, 4)
	for m := range c.members {
		classes[m.method] = append(classes[m.method], m)
	}
	c.mu.Unlock()

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
	c.putCache(c.admit(enc.Buf, &enc.Job, &enc.Result, "encoded once for the class"))
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

// EncodeCached returns the (seq, method) frame, serving from the cache when
// possible and encoding synchronously otherwise. The caller owns one frame
// reference. Resume replays and post-migration dequeues use this: however
// many subscribers need the same (block, method) pair, it is encoded at most
// once while the frame stays cached.
func (c *Channel) EncodeCached(data []byte, seq uint64, m codec.Method, anno []byte) (*Frame, error) {
	job := core.Job{Block: data, Seq: seq, HasSeq: true, Method: m, PreDecided: true, Anno: anno, TC: tracing.ParseAnno(anno)}
	c.mu.Lock()
	if f, ok := c.cache.get(seq, m); ok {
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
	f.Retain()    // the caller's reference
	c.putCache(f) // transfers the creator reference
	return f, nil
}

// LiveBytes reports this channel's live shared-frame wire bytes. Frame
// accounting updates the channel and plane totals together (noteBytes), so
// per-channel values summed across channels equal Plane.LiveBytes exactly.
func (c *Channel) LiveBytes() int64 { return c.liveBytes.Load() }

// putCache hands the caller's frame reference to the cache (or straight
// back to the pool if the cache refuses it).
func (c *Channel) putCache(f *Frame) {
	c.mu.Lock()
	evicted := c.cache.put(f)
	c.mu.Unlock()
	for _, e := range evicted {
		if e != f {
			c.p.evictions.Inc()
		}
		e.Release()
	}
}

// close flushes the pipeline (in-flight blocks still reach their classes)
// and purges the cache.
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
	purged := c.cache.purge()
	c.mu.Unlock()
	for _, f := range purged {
		f.Release()
	}
}
