// Package broker fans one event stream out to many heterogeneous
// subscribers, compressing independently for each of them.
//
// The paper configures compression per *path*: at the same instant a
// fast-LAN receiver wants raw blocks while a congested-WAN receiver wants
// Burrows-Wheeler. The repo's point-to-point tools (ccsend/ccrecv, one
// echo.Bridge per pair) cannot express that. This broker can: publishers
// submit events to named channels, and every subscriber connection keeps
// its own *selection state* — its own goodput EWMA and method choice — so a
// slow link independently drifts toward heavier compression while a fast
// link stays at None/Huffman.
//
// Encoding, by contrast, is shared: subscribers that currently select the
// same method form a method-equivalence class, and the internal/encplane
// subsystem encodes each (block, method) pair exactly once into a
// refcounted frame delivered to every queue in the class. Encode CPU
// scales with the number of distinct methods, not with subscriber count.
//
// Production behaviour under misbehaving peers:
//
//   - each subscriber has a bounded outbound queue with a configurable
//     slow-subscriber policy (drop-oldest or evict);
//   - reads and writes carry rolling idle deadlines, with zero-length
//     frames as heartbeats in both directions;
//   - Shutdown drains queued events to every live subscriber before
//     closing connections;
//   - per-connection goroutines are panic-isolated, so one poisoned codec
//     or handler cannot take the daemon down.
//
// Everything observable feeds an internal/metrics registry: per-subscriber
// bytes in/out, compression-ratio EWMA, method histogram, queue depth, and
// global eviction/drop/panic counters.
package broker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/bwmon"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/encplane"
	"ccx/internal/governor"
	"ccx/internal/metrics"
	"ccx/internal/netutil"
	"ccx/internal/sampling"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// Policy says what to do when a subscriber's outbound queue overflows.
type Policy int

const (
	// DropOldest discards the oldest queued event to make room — late
	// joiners and stragglers see gaps but stay connected (live telemetry).
	DropOldest Policy = iota
	// Evict disconnects the subscriber instead — consumers that must not
	// observe gaps are better served by reconnecting (bulk transfer).
	Evict
)

// String renders the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop"
	case Evict:
		return "evict"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy reads a policy flag value ("drop" or "evict").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop":
		return DropOldest, nil
	case "evict":
		return Evict, nil
	}
	return 0, fmt.Errorf("broker: unknown policy %q (want drop or evict)", s)
}

// Defaults for Config zero values.
const (
	DefaultQueueLen         = 64
	DefaultHeartbeat        = 10 * time.Second
	DefaultHandshakeTimeout = 10 * time.Second
	// DefaultReplayBlocks and DefaultReplayBytes bound a channel's replay
	// ring when exactly one of the two limits is configured; with both zero,
	// replay is disabled entirely.
	DefaultReplayBlocks = 256
	DefaultReplayBytes  = 8 << 20
	// DefaultRetryAfter is the retry delay suggested to subscribers refused
	// by overload admission control.
	DefaultRetryAfter = time.Second
	// DefaultBreakerWindow is how long a subscriber's queue wait must stay
	// over BreakerWait before the circuit breaker trips.
	DefaultBreakerWindow = time.Second
	// closeFrameTimeout bounds the best-effort write of the explicit
	// close-reason frame toward an evicted subscriber.
	closeFrameTimeout = 100 * time.Millisecond
)

// ErrClosed reports an operation on a shut-down broker.
var ErrClosed = errors.New("broker: closed")

// Config assembles a Broker.
type Config struct {
	// Channels restricts which channel names peers may attach to; empty
	// means any name is served.
	Channels []string
	// QueueLen bounds each subscriber's outbound event queue
	// (DefaultQueueLen if 0).
	QueueLen int
	// Policy picks the slow-subscriber behaviour on queue overflow.
	Policy Policy
	// ReplayBlocks and ReplayBytes bound each channel's replay ring: the
	// window of recent blocks retained for loss-free resume (see
	// HandshakeResume). A resuming subscriber whose last delivered sequence
	// still falls inside the window is replayed every missed block; past the
	// window it gets an explicit gap. Both zero disables replay (resumes are
	// still accepted but can only join live); if exactly one is set the
	// other takes its Default. Sequence numbers are stamped regardless, so
	// receivers can always detect loss.
	ReplayBlocks int
	ReplayBytes  int64
	// CacheBytes bounds each channel's shared-frame cache on the encode
	// plane (0 = encplane.DefaultCacheBytes); resume replays are served
	// from it instead of re-encoding.
	CacheBytes int64
	// Engine configures adaptation. The broker builds one core.Engine from
	// it that decides for every subscriber path, each from the block's probe
	// and the path's own goodput monitor (Alpha sets its EWMA weight) and
	// placement. Encoding runs on the shared plane — Workers sets the
	// plane's per-channel encode pool. The Registry is shared; nil means the
	// built-in codec set.
	Engine core.Config
	// Placement is the default compression placement for subscriber paths:
	// where each subscriber's blocks get compressed relative to this broker
	// hop. The zero value (publisher) keeps broker-side encoding — the
	// pre-placement behaviour, since from a subscriber's viewpoint the
	// broker *is* the publishing hop. PlacementReceiver ships raw frames and
	// lets consumers compress (or not) themselves; PlacementAuto lets each
	// subscriber's own goodput/reducing-speed balance decide per block. A
	// hello that advertises a placement overrides this default for that
	// session only.
	Placement selector.Placement
	// HandshakeTimeout bounds the initial handshake exchange
	// (DefaultHandshakeTimeout if 0).
	HandshakeTimeout time.Duration
	// ReadTimeout is the rolling idle deadline on peer reads; a subscriber
	// or publisher silent for longer is considered dead and evicted.
	// 0 disables (peers may be silent forever).
	ReadTimeout time.Duration
	// WriteTimeout is the rolling per-write deadline toward subscribers; a
	// write stalled longer evicts the subscriber. 0 disables.
	WriteTimeout time.Duration
	// Heartbeat is the keepalive interval toward idle subscribers
	// (DefaultHeartbeat if 0, negative disables).
	Heartbeat time.Duration
	// Metrics receives instrumentation (nil = a private registry,
	// retrievable via Broker.Metrics).
	Metrics *metrics.Registry
	// Trace is no longer read: the decision ring it fed is gone (a decision
	// is a decide or migrate span in Tracer's ring). The field stays only
	// because benchmark/ still sets it — see ROADMAP.
	Trace *tracing.Ring
	// Tracer records this hop's spans: ingest decode, per-subscriber queue
	// wait, decision and write (stream "sub.<id>"), and the always-on spans
	// (a path's first decision, every migration, resume, resync). Blocks
	// arriving with a trace-context annotation are traced through;
	// unannotated blocks are head-sampled here, making the broker a trace
	// origin for in-process publishers. nil disables.
	Tracer *tracing.Tracer
	// Logf logs connection lifecycle events (nil = silent).
	Logf func(format string, args ...any)
	// Governor, when non-nil, enables the overload governor (see
	// internal/governor): its levels drive CPU-pressure method demotion on
	// every subscriber path, memory-pressure shrinking of replay rings and
	// the frame cache, admission control (RETRY-AFTER refusals of new
	// subscribes while memory-critical), and shedding of the slowest
	// subscriber queues. The broker fills in QueuedBytes, Metrics, Tracer,
	// and Logf when unset, makes the governor the Limiter of the engine that
	// decides for every path, and owns Start/Stop.
	Governor *governor.Config
	// RetryAfter is the delay suggested to subscribers refused by admission
	// control (DefaultRetryAfter if 0).
	RetryAfter time.Duration
	// BreakerWait arms the slow-subscriber circuit breaker: a subscriber
	// whose deliveries sit queued longer than this, continuously for
	// BreakerWindow, is evicted with an explicit "slow consumer" close
	// frame. 0 disables the breaker.
	BreakerWait   time.Duration
	BreakerWindow time.Duration
}

// Broker accepts publisher and subscriber connections and fans events out.
type Broker struct {
	cfg     Config
	reg     *codec.Registry
	met     *metrics.Registry
	plane   *encplane.Plane
	engine  *core.Engine       // probes each block once, decides every path; never encodes
	gov     *governor.Governor // nil unless Config.Governor was set
	hbFrame []byte             // precomputed zero-length None frame (heartbeats)
	logf    func(string, ...any)

	// memFactor is the replay/cache scale last applied by the governor's
	// memory dimension, in percent (100 = full budgets). The sampler
	// compares-and-applies so shrink/restore runs once per level change.
	memFactor atomic.Int64

	// mu guards lifecycle state only; subscribers are registered on their
	// channel's state.
	mu     sync.Mutex
	closed bool
	nextID int
	pubs   map[net.Conn]struct{}
	lns    map[net.Listener]struct{}

	// chmu guards the channel-state map only; each channelState has its own
	// lock ordered before b.mu (a state's lock may be held while taking
	// b.mu, never the reverse).
	chmu  sync.Mutex
	chans map[string]*channelState

	// Counters the hot paths bump, each resolved by its first use.
	dropsC, eventsIn, bytesIn, writevBatches, writevFrames lazyCounter

	pubWG  sync.WaitGroup // publisher frame loops
	connWG sync.WaitGroup // every connection goroutine
}

// channelState is the one place a channel is serialized (DESIGN.md §15): the
// sequence counter and replay window, the encode-plane channel blocks fan
// out on, and the channel's subscribers. st.mu serializes publishes (stamp +
// plane publish) with joins (resume snapshot + plane join), which makes a
// join atomic: every block is either in the replay snapshot or delivered
// live, never both, never neither. Lock order is st.mu → plane locks; code
// on the plane's sequencer (deliver, removeSub) never takes st.mu, because a
// publisher may hold it while blocked on the pipeline the sequencer drains.
type channelState struct {
	mu    sync.Mutex
	name  string
	ring  replayRing
	plane *encplane.Channel

	// smu guards subs only. It is a leaf lock, separate from mu so teardown
	// on the sequencer can deregister while a publisher holds mu.
	smu  sync.Mutex
	subs map[int]*subscriber

	seqGauge    *metrics.Gauge // chan.<name>.seq — last assigned sequence
	depthBlocks *metrics.Gauge // chan.<name>.replay_blocks
	depthBytes  *metrics.Gauge // chan.<name>.replay_bytes
}

// state returns (creating on first use) the named channel's session state.
func (b *Broker) state(name string) *channelState {
	b.chmu.Lock()
	defer b.chmu.Unlock()
	if st, ok := b.chans[name]; ok {
		return st
	}
	st := &channelState{
		name:        name,
		plane:       b.plane.Channel(name),
		subs:        make(map[int]*subscriber),
		seqGauge:    b.met.Gauge(fmt.Sprintf("chan.%s.seq", name)),
		depthBlocks: b.met.Gauge(fmt.Sprintf("chan.%s.replay_blocks", name)),
		depthBytes:  b.met.Gauge(fmt.Sprintf("chan.%s.replay_bytes", name)),
	}
	st.ring.setBounds(b.cfg.ReplayBlocks, b.cfg.ReplayBytes)
	b.chans[name] = st
	return st
}

// submit probes one event, stamps it with the channel's next sequence
// number, retains it in the replay window, and fans it out on the encode
// plane — one encode per method class. The probe is the block's one sample:
// every subscriber decides from it, live or replayed. Stamp and fan-out run
// under the channel lock, so the plane sees blocks in sequence order and a
// join under the same lock splits the stream exactly: earlier blocks are in
// its snapshot, later ones arrive live. The plane publish blocks while the
// channel's pipeline is full — that is the publisher backpressure (a network
// publisher stops reading, and TCP pushes it upstream). It reports ErrClosed
// for a block that lost the race with Shutdown.
//
// anno is the block's frame annotation as it arrived from the publisher
// (nil for in-process publishes). An unannotated block may be head-sampled
// here, making this broker the trace origin.
func (b *Broker) submit(st *channelState, data, anno []byte) error {
	if tr := b.cfg.Tracer; len(anno) == 0 && tr.Sample() {
		tc := tr.NewContext()
		anno = tc.AppendAnno(nil)
		tr.Record(tracing.Span{
			Trace:      tc.Trace,
			Stream:     st.name,
			Stage:      tracing.StageStamp,
			Start:      tc.WallNs,
			OriginWall: tc.WallNs,
			Bytes:      len(data),
		})
	}
	blk := encplane.Block{Data: data, Anno: anno, Probe: b.engine.Probe(data)}
	st.mu.Lock()
	defer st.mu.Unlock()
	var evBlocks int
	var evBytes int64
	blk.Seq, evBlocks, evBytes = st.ring.stamp(blk)
	if evBlocks > 0 {
		b.met.Counter("broker.replay_evicted_blocks").Add(int64(evBlocks))
		b.met.Counter("broker.replay_evicted_bytes").Add(evBytes)
	}
	st.seqGauge.Set(int64(blk.Seq))
	st.depthBlocks.Set(int64(st.ring.len()))
	st.depthBytes.Set(st.ring.bytes)
	if !st.plane.PublishBlock(blk) {
		return ErrClosed
	}
	return nil
}

// New validates cfg and returns a Broker ready to Serve or HandleConn.
func New(cfg Config) (*Broker, error) {
	if cfg.QueueLen == 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	if cfg.QueueLen < 1 {
		return nil, fmt.Errorf("broker: queue length %d", cfg.QueueLen)
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if bs := cfg.Engine.Selector.BlockSize; bs > codec.MaxFrameLen {
		return nil, fmt.Errorf("broker: block size %d exceeds codec.MaxFrameLen %d",
			bs, codec.MaxFrameLen)
	}
	for _, name := range cfg.Channels {
		if name == "" || len(name) > MaxChannelName {
			return nil, fmt.Errorf("broker: invalid channel name %q", name)
		}
	}
	if cfg.ReplayBlocks < 0 || cfg.ReplayBytes < 0 {
		return nil, fmt.Errorf("broker: negative replay bounds (%d blocks, %d bytes)",
			cfg.ReplayBlocks, cfg.ReplayBytes)
	}
	// One configured bound enables replay with the other defaulted; both
	// zero keeps replay off.
	if cfg.ReplayBlocks > 0 && cfg.ReplayBytes == 0 {
		cfg.ReplayBytes = DefaultReplayBytes
	}
	if cfg.ReplayBytes > 0 && cfg.ReplayBlocks == 0 {
		cfg.ReplayBlocks = DefaultReplayBlocks
	}
	if !cfg.Placement.Valid() {
		return nil, fmt.Errorf("broker: invalid placement %s", cfg.Placement)
	}
	if cfg.Engine.Registry == nil {
		cfg.Engine.Registry = codec.NewRegistry()
	}
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.BreakerWait > 0 && cfg.BreakerWindow <= 0 {
		cfg.BreakerWindow = DefaultBreakerWindow
	}

	// The governor is built before the plane (its NotePipeWait feeds the
	// plane's sequencer) but samples broker state, so its sources close over
	// the *Broker assigned below — safe because sampling only starts after b
	// exists, and nil-guarded anyway.
	var b *Broker
	var gov *governor.Governor
	if cfg.Governor != nil {
		gcfg := *cfg.Governor
		if gcfg.Metrics == nil {
			gcfg.Metrics = met
		}
		if gcfg.Tracer == nil {
			gcfg.Tracer = cfg.Tracer
		}
		if gcfg.Logf == nil {
			gcfg.Logf = logf
		}
		if gcfg.QueuedBytes == nil {
			gcfg.QueuedBytes = func() int64 {
				if b == nil {
					return 0
				}
				return b.queuedBytes()
			}
		}
		userSample := gcfg.OnSample
		gcfg.OnSample = func(s governor.Snapshot) {
			if b != nil {
				b.onPressureSample(s)
			}
			if userSample != nil {
				userSample(s)
			}
		}
		gov = governor.New(gcfg)
		// The deciding engine demotes selections down the method ladder
		// under CPU pressure.
		cfg.Engine.Limiter = gov
	}
	// The one engine that decides for every subscriber path; it counts each
	// block a path writes into the ccx.tx_* metrics.
	ecfg := cfg.Engine
	ecfg.Telemetry = core.Telemetry{Metrics: met}
	engine, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, fmt.Errorf("broker: engine config: %w", err)
	}

	pcfg := encplane.Config{
		Engine:     cfg.Engine,
		Workers:    cfg.Engine.Workers,
		CacheBytes: cfg.CacheBytes,
		Metrics:    met,
		Tracer:     cfg.Tracer,
		Logf:       logf,
	}
	if gov != nil {
		pcfg.PipeWait = gov.NotePipeWait
	}
	plane, err := encplane.New(pcfg)
	if err != nil {
		return nil, err
	}
	// Heartbeats are zero-length None frames — constant bytes, so one
	// buffer serves every subscriber forever.
	hb, _, err := codec.AppendFrameOpts(nil, cfg.Engine.Registry, codec.None, nil, codec.FrameOpts{})
	if err != nil {
		return nil, fmt.Errorf("broker: heartbeat frame: %w", err)
	}
	b = &Broker{
		cfg:     cfg,
		reg:     cfg.Engine.Registry,
		met:     met,
		plane:   plane,
		engine:  engine,
		gov:     gov,
		hbFrame: hb,
		logf:    logf,
		pubs:    make(map[net.Conn]struct{}),
		lns:     make(map[net.Listener]struct{}),
		chans:   make(map[string]*channelState),
	}
	b.memFactor.Store(100)
	if gov != nil {
		gov.Start()
	}
	return b, nil
}

// Metrics returns the instrumentation registry the broker feeds.
func (b *Broker) Metrics() *metrics.Registry { return b.met }

// Governor returns the overload governor, nil unless Config.Governor was
// set. Tests drive SampleNow through it for deterministic pressure steps.
func (b *Broker) Governor() *governor.Governor { return b.gov }

// states snapshots the channel-state map.
func (b *Broker) states() []*channelState {
	b.chmu.Lock()
	defer b.chmu.Unlock()
	out := make([]*channelState, 0, len(b.chans))
	for _, st := range b.chans {
		out = append(out, st)
	}
	return out
}

// queuedBytes is the aggregate-bytes ledger the governor samples: wire bytes
// held by live shared frames (queued deliveries, the frame cache, in-flight
// encodes) plus every replay ring's retained payload.
func (b *Broker) queuedBytes() int64 {
	total := b.plane.LiveBytes()
	for _, st := range b.states() {
		st.mu.Lock()
		total += st.ring.bytes
		st.mu.Unlock()
	}
	return total
}

// allSubs snapshots every live subscriber across the channels.
func (b *Broker) allSubs() []*subscriber {
	var out []*subscriber
	for _, st := range b.states() {
		st.smu.Lock()
		for _, s := range st.subs {
			out = append(out, s)
		}
		st.smu.Unlock()
	}
	return out
}

// memScale maps a memory-pressure level to the replay/cache budget scale in
// percent.
func memScale(l governor.Level) int64 {
	switch l {
	case governor.LevelElevated:
		return 50
	case governor.LevelCritical:
		return 25
	}
	return 100
}

// onPressureSample runs on the governor's sampling goroutine after every
// sample: rescale retention budgets when the memory level moved, and shed
// the slowest subscriber queues while memory stays critical. CPU pressure
// needs no push — every subscriber's next selection reads the method cap
// through the engine's limiter.
func (b *Broker) onPressureSample(snap governor.Snapshot) {
	factor := memScale(snap.Mem)
	if b.memFactor.Swap(factor) != factor {
		b.applyMemFactor(factor)
	}
	if snap.Mem == governor.LevelCritical {
		b.shedSlowest()
	}
}

// applyMemFactor rescales the frame cache and every replay ring to
// factor percent of their configured budgets (floored; 100 restores).
func (b *Broker) applyMemFactor(factor int64) {
	f := float64(factor) / 100
	b.plane.SetCacheScale(f, ringFloorBytes)
	var evBlocks int
	var evBytes int64
	for _, st := range b.states() {
		st.mu.Lock()
		blocks, bytes := st.ring.setPressure(f)
		st.depthBlocks.Set(int64(st.ring.len()))
		st.depthBytes.Set(st.ring.bytes)
		st.mu.Unlock()
		evBlocks += blocks
		evBytes += bytes
	}
	if evBlocks > 0 {
		b.met.Counter("broker.replay_evicted_blocks").Add(int64(evBlocks))
		b.met.Counter("broker.replay_evicted_bytes").Add(evBytes)
	}
	b.logf("broker: governor scaled retention to %d%% (shrink evicted %d blocks)", factor, evBlocks)
}

// maxShedPerSample bounds one sampling interval's evictions so a single
// critical sample cannot dump the whole subscriber population — pressure
// relief arrives in governor-interval-sized steps, newest readings first.
const maxShedPerSample = 64

// shedSlowest evicts the deepest subscriber queues (at least half full)
// while memory pressure is critical: each eviction releases that queue's
// frame references immediately. Victims get the explicit overload close
// frame, so they back off and resume rather than hammer the handshake.
func (b *Broker) shedSlowest() {
	half := b.cfg.QueueLen / 2
	if half < 1 {
		half = 1
	}
	victims := make([]*subscriber, 0, 8)
	for _, s := range b.allSubs() {
		if s.backlog() >= half {
			victims = append(victims, s)
		}
	}
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].backlog() > victims[j].backlog() })
	if len(victims) > maxShedPerSample {
		victims = victims[:maxShedPerSample]
	}
	for _, s := range victims {
		b.gov.NoteShedEviction()
		b.met.Counter("broker.shed_evictions").Inc()
		b.evictSub(s, codec.CloseOverload, "overload shed: memory pressure critical")
	}
}

// Subscribers reports the number of live subscriber connections.
func (b *Broker) Subscribers() int {
	n := 0
	for _, st := range b.states() {
		st.smu.Lock()
		n += len(st.subs)
		st.smu.Unlock()
	}
	return n
}

// Publish submits one event to the named channel from inside the process.
// data is copied, so callers may reuse their buffer.
func (b *Broker) Publish(channel string, data []byte) error {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := b.channelAllowed(channel); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if len(data) > codec.MaxFrameLen {
		return fmt.Errorf("broker: event size %d exceeds codec.MaxFrameLen %d",
			len(data), codec.MaxFrameLen)
	}
	owned := make([]byte, len(data))
	copy(owned, data)
	b.eventsIn.get(b.met, "broker.events_in").Inc()
	b.bytesIn.get(b.met, "broker.bytes_in").Add(int64(len(owned)))
	return b.submit(b.state(channel), owned, nil)
}

// Serve accepts connections on ln until the broker shuts down. It returns
// nil after Shutdown, or the accept error otherwise.
func (b *Broker) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	b.lns[ln] = struct{}{}
	b.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			b.mu.Lock()
			closed := b.closed
			delete(b.lns, ln)
			b.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		b.HandleConn(conn)
	}
}

// HandleConn adopts an established connection (any net.Conn — TCP, pipes,
// netsim-shaped links) and runs its session asynchronously: handshake,
// then the publisher frame loop or the subscriber fan-out loop. A
// connection handed to a broker that already shut down is closed.
func (b *Broker) HandleConn(conn net.Conn) {
	// The Add must be ordered against Shutdown's Wait via b.mu: once closed
	// is set the counter may be zero and a bare Add would race the Wait.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	b.connWG.Add(1)
	b.mu.Unlock()
	go b.handle(conn)
}

func (b *Broker) handle(conn net.Conn) {
	defer b.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			b.met.Counter("broker.panics").Inc()
			b.logf("broker: connection panic: %v", r)
			conn.Close()
		}
	}()

	_ = conn.SetDeadline(time.Now().Add(b.cfg.HandshakeTimeout))
	hs, err := readHandshake(conn)
	if err != nil {
		// The peer is not speaking our protocol (and on a synchronous
		// transport may still be mid-write), so reply nothing: just hang up.
		conn.Close()
		b.logf("broker: %v", err)
		return
	}
	if err := b.channelAllowed(hs.channel); err != nil {
		_ = writeReply(conn, err)
		conn.Close()
		b.logf("broker: refused %c on %q: %v", hs.role, hs.channel, err)
		return
	}

	pl, advertised := b.resolvePlacement(hs)

	switch hs.role {
	case RolePublish:
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			_ = writeReply(conn, ErrClosed)
			conn.Close()
			return
		}
		b.pubs[conn] = struct{}{}
		b.pubWG.Add(1)
		b.mu.Unlock()
		// finishPublisher must run even if the frame loop panics — Shutdown
		// waits on the publisher group.
		defer b.finishPublisher(conn)
		if err := writeReply(conn, nil); err != nil {
			return
		}
		_ = conn.SetDeadline(time.Time{})
		if advertised {
			// Informational only: the publisher enforces its half by shipping
			// raw frames when it offloads; the broker decodes either way.
			b.met.Counter(fmt.Sprintf("broker.pub_placement.%s", pl)).Inc()
			b.logf("broker: publisher attached to %q (placement %s)", hs.channel, pl)
		} else {
			b.logf("broker: publisher attached to %q", hs.channel)
		}
		b.handlePublisher(conn, hs.channel)

	case RoleSubscribe, RoleResume:
		// Admission control: while the memory dimension is critical, taking
		// on another queue + engine + replay snapshot makes the exhaustion
		// worse, so refuse with an explicit RETRY-AFTER instead of accepting
		// a session that shedding would immediately evict.
		if b.gov != nil && b.gov.Memory() == governor.LevelCritical {
			b.gov.NoteShedSubscribe()
			b.met.Counter("broker.admission_refused").Inc()
			_ = writeRetryReply(conn, "overloaded: memory pressure critical", b.cfg.RetryAfter)
			conn.Close()
			b.logf("broker: refused %c on %q: memory pressure critical (retry after %v)",
				hs.role, hs.channel, b.cfg.RetryAfter)
			return
		}
		resume := hs.role == RoleResume
		s, firstSeq, err := b.addSubscriber(conn, hs.channel, pl, resume, hs.lastSeq)
		if err != nil {
			_ = writeReply(conn, err)
			conn.Close()
			return
		}
		if resume {
			err = writeResumeReply(conn, firstSeq)
		} else {
			err = writeReply(conn, nil)
		}
		_ = conn.SetDeadline(time.Time{})
		live := s.greet()
		if err != nil {
			b.removeSub(s, false, "handshake reply failed")
			return
		}
		if !live {
			return // evicted while the reply was in flight; greet hung up
		}
		if resume {
			b.logf("broker: subscriber %d resumed %q from seq %d (replaying %d)",
				s.id, hs.channel, hs.lastSeq, len(s.replay))
		} else {
			b.logf("broker: subscriber %d attached to %q", s.id, hs.channel)
		}
		b.connWG.Add(1)
		go s.readDrain(b)
		s.run(b)
	}
}

// resolvePlacement turns the hello's placement byte into this session's
// placement: no preference is the broker's configured default, an advert
// overrides it (advertised reports that), and a byte this broker does not
// know degrades to publisher — counted, so operators see the skew instead
// of silently-inline sessions.
func (b *Broker) resolvePlacement(hs handshake) (pl selector.Placement, advertised bool) {
	if hs.placement == placementDefault {
		return b.cfg.Placement, false
	}
	pl, known := selector.PlacementFromWire(hs.placement)
	if !known {
		b.met.Counter("broker.placement_degraded").Inc()
		b.logf("broker: %c on %q advertised unknown placement byte %#x, degrading to %s",
			hs.role, hs.channel, hs.placement, pl)
	}
	return pl, true
}

func (b *Broker) finishPublisher(conn net.Conn) {
	conn.Close()
	b.mu.Lock()
	delete(b.pubs, conn)
	b.mu.Unlock()
	b.pubWG.Done()
}

func (b *Broker) channelAllowed(name string) error {
	if name == "" || len(name) > MaxChannelName {
		return fmt.Errorf("broker: invalid channel name %q", name)
	}
	if len(b.cfg.Channels) == 0 {
		return nil
	}
	for _, allowed := range b.cfg.Channels {
		if name == allowed {
			return nil
		}
	}
	return fmt.Errorf("broker: channel %q not served", name)
}

// handlePublisher decodes the publisher's frame stream and fans every
// event into the channel. FrameReader returns freshly allocated payloads,
// so events can be shared across subscriber queues without copying. A
// publisher that asks for acknowledgements gets them, as from a
// core.Reader (the Acker is the same).
//
// A corrupt frame (flipped bits, swallowed bytes, a payload the codec
// rejects) poisons only itself: the broker counts it, resynchronizes on
// the next frame boundary, and keeps serving the survivors. Only transport
// errors — truncation, timeouts, hangups — end the publisher session.
func (b *Broker) handlePublisher(conn net.Conn, channel string) {
	st := b.state(channel)
	ack := core.NewAcker(netutil.WithTimeouts(conn, b.cfg.ReadTimeout, 0))
	fr := codec.NewFrameReader(ack, b.reg)
	events := b.met.Counter("broker.events_in")
	bytesIn := b.met.Counter("broker.bytes_in")
	corrupt := b.met.Counter("broker.corrupt_frames")
	for {
		data, info, err := fr.ReadBlock()
		if err != nil {
			if errors.Is(err, codec.ErrCorruptFrame) {
				corrupt.Inc()
				ack.Frame(nil, true)
				b.logf("broker: publisher on %q: dropping corrupt frame: %v", channel, err)
				// Resync is always-on traced (anomaly), sampled or not.
				rstart := time.Now()
				rerr := fr.Resync()
				b.cfg.Tracer.Record(tracing.Span{
					Stream:  channel,
					Stage:   tracing.StageResync,
					Start:   rstart.UnixNano(),
					Dur:     time.Since(rstart).Nanoseconds(),
					Err:     err.Error(),
					Anomaly: true,
				})
				if rerr == nil {
					continue
				}
				// No further frame boundary before the stream ended.
				return
			}
			if err != io.EOF {
				b.logf("broker: publisher on %q: %v", channel, err)
			}
			return
		}
		ack.Frame(info.Anno, false)
		if len(data) == 0 {
			continue // keepalive or acknowledgement request
		}
		events.Inc()
		bytesIn.Add(int64(len(data)))
		if tr := b.cfg.Tracer; tr != nil && len(info.Anno) > 0 {
			if tc := tracing.ParseAnno(info.Anno); tc.Valid() {
				// Arrival marker: a zero-duration decode span pins when the
				// annotated block reached this hop, which is what lets the
				// stitcher attribute the publisher→broker wire gap.
				tr.Record(tracing.Span{
					Trace:      tc.Trace,
					Seq:        info.Seq,
					Stream:     channel,
					Stage:      tracing.StageDecode,
					Start:      time.Now().UnixNano(),
					OriginWall: tc.WallNs,
					Method:     info.Method.String(),
					Bytes:      len(data),
				})
			}
		}
		_ = b.submit(st, data, info.Anno)
	}
}

// subscriber is one consumer connection. Its selection state is its goodput
// monitor, its placement policy and its latest decision; the broker's engine
// decides from them. Encoded frames arrive ready-made from the shared encode
// plane through the outbound queue.
type subscriber struct {
	id      int
	channel string
	stream  string   // "sub.<id>": the path's span label
	conn    net.Conn // raw; Close unblocks both loops
	wc      net.Conn // write side with rolling deadline
	mon     *bwmon.Monitor
	plc     selector.PlacementPolicy
	member  *encplane.Member
	st      *channelState

	queue  chan encplane.Delivery
	replay []encplane.Block // resume backlog, sent before any live delivery
	drain  chan struct{}    // closed by Shutdown: flush queue, then hang up
	quit   chan struct{}    // closed on evict/teardown: exit immediately
	once   sync.Once

	// qmu orders deliveries against teardown: deliver refuses once dead is
	// set, and removeSub sets dead before draining the queue, so no frame
	// reference can slip into a queue nobody will ever drain.
	qmu  sync.Mutex
	dead bool
	// greeted is set once the handshake reply is on the wire. The member is
	// evictable from the moment it joins the plane, which is before that; a
	// teardown that early parks its goodbye-and-close in hangup for the
	// handshake goroutine to run after the reply, so the client reads OK and
	// then "evicted: …", never a close frame where its status byte belongs.
	greeted bool
	hangup  func()

	// wmu serializes connection writes so the eviction path can interleave
	// its close-reason frame on whole-frame boundaries. The write loop holds
	// it per frame; teardown only TryLocks — a writer blocked on a dead peer
	// means the close frame is skipped, not waited for.
	wmu sync.Mutex
	// closeCode, when non-zero, overrides the close-reason frame's default
	// (overload) — the breaker sets slow-consumer before evicting.
	closeCode atomic.Int32
	// slowSince is when the current over-threshold queue-wait run started
	// (breaker state; write-loop only).
	slowSince time.Time

	// lastDec is the path's latest decision (write-loop only): its Method is
	// the class the member sits in, its Placement where the path compresses.
	lastDec      selector.Decision
	blocks       int                  // blocks written so far; 0 marks the path's first decision
	batchScratch []encplane.Delivery  // write-loop scratch for vectored batches
	frameScratch []*encplane.Frame    // sendBatch's frames, in batch order
	plcScratch   []selector.Placement // the placement each of frameScratch was decided at
	bufScratch   net.Buffers          // sendBatch's wire views of frameScratch
	// inflight counts frames collected into an in-progress batch write.
	// They are off the queue but not yet on the wire, so backlog-depth
	// readers (shedding) must add them back or a stalled subscriber hiding
	// a full batch behind a blocked write looks nearly idle.
	inflight atomic.Int32

	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	drops     *metrics.Counter
	methods   [256]*metrics.Counter // sub.<id>.method.<m>, resolved on first use (write-loop only)
	depth     *metrics.Gauge
	depthHWM  *metrics.Gauge
	ratio     *metrics.EWMA
	queueWait *metrics.Histogram
}

// addSubscriber builds a subscriber session with the resolved placement pl.
// For a resume it additionally snapshots the replay backlog and reports the
// first sequence number the session will deliver; snapshot, subscription,
// and registration happen atomically with respect to publishes (the
// channel-state lock), so no block can fall between the replay window and
// the live stream.
func (b *Broker) addSubscriber(conn net.Conn, channel string, pl selector.Placement, resume bool, lastSeq uint64) (*subscriber, uint64, error) {
	// Reserve the subscriber's id first: its metric names and stream label
	// ("sub.<id>") need it.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, 0, ErrClosed
	}
	b.nextID++
	id := b.nextID
	b.mu.Unlock()

	s := &subscriber{
		id:      id,
		channel: channel,
		stream:  fmt.Sprintf("sub.%d", id),
		conn:    conn,
		wc:      netutil.WithTimeouts(conn, 0, b.cfg.WriteTimeout),
		mon:     bwmon.New(b.cfg.Engine.Alpha),
		// The broker is the deciding node on every subscriber path:
		// "publisher" placement here means broker-side (inline) encoding,
		// "receiver" ships raw and offloads downstream, "auto" flips between
		// the two from this path's own goodput/reducing-speed balance.
		plc: selector.PlacementPolicy{
			Mode:          pl,
			Node:          selector.PlacementBroker,
			OffloadFactor: b.cfg.Engine.Placement.OffloadFactor,
		},
		queue: make(chan encplane.Delivery, b.cfg.QueueLen),
		drain: make(chan struct{}),
		quit:  make(chan struct{}),

		bytesIn:   b.met.Counter(fmt.Sprintf("sub.%d.bytes_in", id)),
		bytesOut:  b.met.Counter(fmt.Sprintf("sub.%d.bytes_out", id)),
		drops:     b.met.Counter(fmt.Sprintf("sub.%d.drops", id)),
		depth:     b.met.Gauge(fmt.Sprintf("sub.%d.queue_depth", id)),
		depthHWM:  b.met.Gauge(fmt.Sprintf("sub.%d.queue_hwm", id)),
		ratio:     b.met.EWMA(fmt.Sprintf("sub.%d.ratio", id), 0),
		queueWait: b.met.Histogram("broker.queue_wait_seconds", metrics.LatencyBuckets),
	}

	st := b.state(channel)
	s.st = st
	// An unmeasured path starts raw in the None class, at the placement its
	// policy picks blind; adapt moves both from the first delivery on.
	s.lastDec.Placement = s.plc.Decide(selector.Inputs{})
	// Snapshot and plane join share one hold of the lock every publish
	// stamps and fans out under: a block stamped before it is in the snapshot
	// and was fanned out without this member, a block stamped after finds
	// the member joined — replayed or live, never both, never neither.
	st.mu.Lock()
	var firstSeq uint64
	if resume {
		s.replay, firstSeq = st.ring.replayFrom(lastSeq)
		b.noteResume(s, lastSeq, firstSeq, len(s.replay))
	}
	s.member = st.plane.Join(codec.None, func(d encplane.Delivery) bool {
		return s.deliver(b, d)
	})
	st.mu.Unlock()
	// Registration is ordered against Shutdown via b.mu: once closed is
	// set, Shutdown snapshots the registries, so a session that lost the
	// race backs out (leaving the membership) instead of registering a
	// subscriber nobody will ever drain. The dead re-check under qmu closes
	// the other race: deliveries start the moment the member joins, so a
	// queue-overflow eviction can tear the session down before this point —
	// registering it afterwards would leak a registry slot forever.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		s.member.Leave()
		return nil, 0, ErrClosed
	}
	s.qmu.Lock()
	if s.dead {
		s.qmu.Unlock()
		b.mu.Unlock()
		return nil, 0, errors.New("broker: subscriber evicted during handshake")
	}
	st.smu.Lock()
	st.subs[s.id] = s
	st.smu.Unlock()
	b.met.Gauge("broker.subscribers").Add(1)
	s.qmu.Unlock()
	b.mu.Unlock()
	return s, firstSeq, nil
}

// noteResume records one resume handshake in the metrics registry and as a
// span. Caller holds the channel-state lock.
func (b *Broker) noteResume(s *subscriber, lastSeq, firstSeq uint64, replayed int) {
	b.met.Counter("broker.resumes").Inc()
	b.met.Counter("broker.resume_replayed_blocks").Add(int64(replayed))
	var gap uint64
	// want wraps to 0 only for an absurd lastSeq of MaxUint64, which
	// replayFrom already treats as fully caught up — no gap to report.
	if want := lastSeq + 1; want != 0 && firstSeq > want {
		gap = firstSeq - want
	}
	if gap > 0 {
		b.met.Counter("broker.resume_gaps").Inc()
		b.met.Counter("broker.resume_gap_blocks").Add(int64(gap))
	}
	// Resume handshakes are always-on traced anomalies: Bytes carries the
	// replayed block count, Err the gap (blocks lost past the window).
	sp := tracing.Span{
		Stream:  s.stream,
		Seq:     firstSeq,
		Stage:   tracing.StageResume,
		Start:   time.Now().UnixNano(),
		Bytes:   replayed,
		Anomaly: true,
	}
	if gap > 0 {
		sp.Err = fmt.Sprintf("gap of %d blocks past replay window", gap)
	}
	b.cfg.Tracer.Record(sp)
}

// greet marks the handshake reply as written and runs the hang-up a
// concurrent teardown parked meanwhile. It reports whether the session is
// still live.
func (s *subscriber) greet() bool {
	s.qmu.Lock()
	s.greeted = true
	hangup := s.hangup
	s.qmu.Unlock()
	if hangup != nil {
		hangup()
	}
	return hangup == nil
}

// deliver runs on the encode plane's sequencer goroutine and must never
// block: a full queue triggers the slow-subscriber policy. It reports
// whether the delivery (and its frame reference) was accepted.
func (s *subscriber) deliver(b *Broker, d encplane.Delivery) bool {
	s.qmu.Lock()
	if s.dead {
		s.qmu.Unlock()
		return false
	}
	select {
	case s.queue <- d:
		s.noteDepth()
		s.qmu.Unlock()
		return true
	default:
	}
	switch b.cfg.Policy {
	case DropOldest:
		select {
		case old := <-s.queue:
			old.Frame.Release()
			s.drops.Inc()
			b.drops().Inc()
		default:
		}
		accepted := true
		select {
		case s.queue <- d:
		default:
			// Lost the race to the draining write loop refilling; the new
			// delivery is the drop.
			accepted = false
			s.drops.Inc()
			b.drops().Inc()
		}
		s.noteDepth()
		s.qmu.Unlock()
		return accepted
	case Evict:
		s.qmu.Unlock()
		b.removeSub(s, true, "outbound queue overflow")
		return false
	}
	s.qmu.Unlock()
	return false
}

// lazyCounter is a registry counter resolved by its first use, so a hot path
// stays off the registry lock and an idle broker's metric surface does not
// list what it never touched (broker.drops appears with the first drop).
type lazyCounter struct {
	once sync.Once
	c    *metrics.Counter
}

func (l *lazyCounter) get(met *metrics.Registry, name string) *metrics.Counter {
	l.once.Do(func() { l.c = met.Counter(name) })
	return l.c
}

func (b *Broker) drops() *metrics.Counter { return b.dropsC.get(b.met, "broker.drops") }

// backlog is the shedding view of this subscriber's depth: frames still
// queued plus those already collected into an in-progress batch write.
func (s *subscriber) backlog() int {
	return len(s.queue) + int(s.inflight.Load())
}

// noteDepth refreshes the queue-depth gauge and its high-water mark.
func (s *subscriber) noteDepth() {
	d := int64(len(s.queue))
	s.depth.Set(d)
	s.depthHWM.SetMax(d)
}

// run is the subscriber's write loop: dequeue a shared frame, write it,
// feed the realized send time into this path's goodput monitor, and re-run
// selection to keep the member in the right method class. Encoding already
// happened once per class on the plane.
func (s *subscriber) run(b *Broker) {
	defer func() {
		if r := recover(); r != nil {
			b.met.Counter("broker.panics").Inc()
			b.logf("broker: subscriber %d panic: %v", s.id, r)
		}
		b.removeSub(s, false, "write loop exit")
	}()
	var hb <-chan time.Time
	if b.cfg.Heartbeat > 0 {
		t := time.NewTicker(b.cfg.Heartbeat)
		defer t.Stop()
		hb = t.C
	}
	// Resume backlog first: replayed blocks all precede any live delivery
	// in sequence order (the snapshot was atomic with the plane join). Each
	// goes out as a delivery without a frame — sendBatch fetches it from the
	// shared frame cache at the method the path has selected by then — and
	// alone in its batch: a batch is decided whole before any of it is
	// written, and a path that resumes unmeasured would ship its whole first
	// batch raw for want of the goodput sample its first write provides.
	for _, e := range s.replay {
		select {
		case <-s.quit:
			return
		default:
		}
		if !s.sendBatch(b, append(s.batchScratch[:0], encplane.Delivery{Block: e, TC: tracing.ParseAnno(e.Anno)})) {
			return
		}
	}
	s.replay = nil
	for {
		select {
		case <-s.quit:
			return
		case <-s.drain:
			// Graceful shutdown: flush whatever is queued, then hang up.
			for {
				select {
				case d := <-s.queue:
					if !s.sendBatch(b, s.collectBatch(d)) {
						return
					}
				default:
					return
				}
			}
		case d := <-s.queue:
			batch := s.collectBatch(d)
			s.depth.Set(int64(len(s.queue)))
			if !s.sendBatch(b, batch) {
				return
			}
		case <-hb:
			s.wmu.Lock()
			_, err := s.wc.Write(b.hbFrame)
			s.wmu.Unlock()
			if err != nil {
				b.logf("broker: subscriber %d write: %v", s.id, err)
				b.removeSub(s, true, "write failed or timed out")
				return
			}
		}
	}
}

// maxBatchFrames bounds one vectored write: enough frames to amortize the
// syscall and write-lock cost across a burst, few enough that queue-wait
// attribution and the breaker stay per-delivery accurate.
const maxBatchFrames = 32

// collectBatch starts a batch with first and greedily takes whatever else
// is already queued, up to maxBatchFrames. It never blocks: batching only
// coalesces backlog that has already accumulated — a quiet stream keeps
// its one-frame latency.
func (s *subscriber) collectBatch(first encplane.Delivery) []encplane.Delivery {
	batch := append(s.batchScratch[:0], first)
	for len(batch) < maxBatchFrames {
		select {
		case d := <-s.queue:
			batch = append(batch, d)
		default:
			s.batchScratch = batch
			return batch
		}
	}
	s.batchScratch = batch
	return batch
}

// sendBatch writes a run of deliveries as one vectored write (net.Buffers,
// writev on TCP-backed conns), releasing every frame reference exactly
// once — the one path from a subscriber's backlog to its wire, for queued
// deliveries and resume-backlog entries alike. Per delivery: queue wait is
// attributed once per class (first dequeuer, so the histogram measures
// distinct frames, not fan-out width), the slow-consumer breaker runs, and
// selection runs at dequeue with this block's shared probe and the path's
// live goodput, the same instant a per-subscriber encode loop would
// decide. When a decision differs from the class a frame was encoded for
// at publish time, the frame is swapped through the shared (seq, method)
// cache: however many subscribers migrated the same way, the block is
// re-encoded at most once. A resume-backlog entry arrives with no frame
// and takes its first from that cache; it never sat in the queue, so it
// skips the wait and breaker accounting. Only the wire write is coalesced;
// its measured duration is attributed evenly across the batch for spans
// and the goodput monitor. It reports false when the subscriber was torn
// down (breaker trip, encode or write failure).
func (s *subscriber) sendBatch(b *Broker, batch []encplane.Delivery) bool {
	s.inflight.Store(int32(len(batch)))
	defer s.inflight.Store(0)
	tr := b.cfg.Tracer
	frames, placements, bufs := s.frameScratch[:0], s.plcScratch[:0], s.bufScratch[:0]
	defer func() {
		// The grown arrays are kept, what they point at is not: a stale entry
		// would pin a released frame's buffer.
		clear(frames)
		clear(bufs)
		s.frameScratch, s.plcScratch, s.bufScratch = frames[:0], placements[:0], bufs[:0]
	}()
	// abandon releases what the batch still holds from delivery i on:
	// removeSub drains the queue, but these are already off it.
	abandon := func(i int) bool {
		for _, f := range frames {
			f.Release()
		}
		for _, d := range batch[i:] {
			if d.Frame != nil {
				d.Frame.Release()
			}
		}
		return false
	}
	for i, d := range batch {
		f := d.Frame
		if f != nil {
			if f.FirstWait() {
				s.queueWait.Observe(time.Since(d.At).Seconds())
			}
			if b.cfg.BreakerWait > 0 && s.checkBreaker(b, time.Since(d.At)) {
				return abandon(i)
			}
			if tr != nil && d.TC.Valid() {
				tr.Record(tracing.Span{
					Trace:      d.TC.Trace,
					Seq:        d.Seq,
					Stream:     s.stream,
					Stage:      tracing.StageQueue,
					Start:      d.At.UnixNano(),
					Dur:        time.Since(d.At).Nanoseconds(),
					OriginWall: d.TC.WallNs,
				})
			}
		}
		migrated := s.adapt(b, len(d.Data), d.Probe)
		if f == nil || f.RequestedMethod() != s.lastDec.Method {
			nf, err := s.st.plane.EncodeCached(d.Data, d.Seq, s.lastDec.Method, d.Anno)
			switch {
			case err == nil:
				if f != nil {
					f.Release()
				}
				f = nf
			case f != nil:
				// Fall back to the delivered frame: stale method, correct bytes.
				b.logf("broker: subscriber %d re-encode: %v", s.id, err)
			default:
				b.logf("broker: subscriber %d replay encode: %v", s.id, err)
				return abandon(i)
			}
		}
		// The decision is a span when the block is head-sampled and, always,
		// when it is the path's first or migrated it: class migrations are
		// exactly the adaptation events the paper's Figure 8 plots.
		if switched := migrated || s.blocks+i == 0; tr != nil && (switched || d.TC.Valid()) {
			stage := tracing.StageDecide
			if migrated {
				stage = tracing.StageMigrate
			}
			tr.Record(tracing.Span{
				Trace:      d.TC.Trace,
				Seq:        d.Seq,
				Stream:     s.stream,
				Stage:      stage,
				Start:      time.Now().UnixNano(),
				OriginWall: d.TC.WallNs,
				Method:     f.Info().Method.String(),
				Placement:  s.lastDec.Placement.String(),
				Anomaly:    switched,
				Decision:   core.DecisionAttrs(&core.BlockResult{Decision: s.lastDec, Info: f.Info(), Workers: 1}, s.mon.Goodput()),
			})
		}
		bufs = append(bufs, f.Bytes())
		frames = append(frames, f)
		placements = append(placements, s.lastDec.Placement)
	}
	start := time.Now()
	s.wmu.Lock()
	wbufs := bufs // WriteBuffers consumes the header it is handed
	_, err := netutil.WriteBuffers(s.wc, &wbufs)
	s.wmu.Unlock()
	batchDur := time.Since(start)
	if err != nil {
		b.logf("broker: subscriber %d write: %v", s.id, err)
		b.removeSub(s, true, "write failed or timed out")
		return abandon(len(batch))
	}
	if len(frames) > 1 {
		b.writevBatches.get(b.met, "broker.writev_batches").Inc()
		b.writevFrames.get(b.met, "broker.writev_frames").Add(int64(len(frames)))
	}
	share := batchDur / time.Duration(len(frames))
	for k, f := range frames {
		d, pl := batch[k], placements[k]
		wire := len(f.Bytes())
		if tr != nil && d.TC.Valid() {
			tr.Record(tracing.Span{
				Trace:      d.TC.Trace,
				Seq:        d.Seq,
				Stream:     s.stream,
				Stage:      tracing.StageWrite,
				Start:      start.Add(time.Duration(k) * share).UnixNano(),
				Dur:        share.Nanoseconds(),
				OriginWall: d.TC.WallNs,
				Method:     f.Info().Method.String(),
				Placement:  pl.String(),
				Bytes:      wire,
			})
		}
		s.observeBlock(b, f.Info(), pl, share, wire, len(d.Data))
		f.Release()
	}
	return true
}

// observeBlock feeds one delivered block into this path's monitor and
// metrics. Info is the wire truth (the class frame that was sent); pl is
// the placement the block was decided at.
func (s *subscriber) observeBlock(b *Broker, info codec.BlockInfo, pl selector.Placement, sendTime time.Duration, wire, origLen int) {
	// End-to-end feedback: the write stalls under receiver backpressure,
	// which is exactly the acceptance-rate signal the selector wants.
	s.mon.Observe(wire, sendTime)
	s.bytesIn.Add(int64(origLen))
	s.bytesOut.Add(int64(wire))
	s.ratio.Observe(info.Ratio())
	c := s.methods[info.Method]
	if c == nil {
		c = b.met.Counter(fmt.Sprintf("sub.%d.method.%s", s.id, info.Method))
		s.methods[info.Method] = c
	}
	c.Inc()
	b.engine.ObserveBlock(core.BlockResult{
		Decision:  selector.Decision{Placement: pl},
		Info:      info,
		SendTime:  sendTime,
		WireBytes: wire,
	})
	s.blocks++
}

// adapt runs selection with the shared probe and this path's own predicted
// send time, migrating the member's class when the method changes. It runs
// before each write, so the decision applies to the block about to be sent —
// identical timing to a per-subscriber encode loop (see DESIGN.md §11).
// Placement runs inside the same decision: a path whose link outruns its
// codec flips to receiver-side placement, which surfaces here as Method
// None with Decision.Offloaded set, so the member moves to the None class.
// It reports whether the method or the placement changed, so the caller
// records the decision as a migrate span.
func (s *subscriber) adapt(b *Broker, blockLen int, probe sampling.ProbeResult) bool {
	prev := s.lastDec
	s.lastDec = b.engine.DecideProbed(s.mon, s.plc, blockLen, probe)
	if s.lastDec.Method != prev.Method {
		s.member.Migrate(s.lastDec.Method)
	}
	return s.lastDec.Method != prev.Method || s.lastDec.Placement != prev.Placement
}

// checkBreaker runs the slow-subscriber circuit breaker against one
// delivery's queue wait: a wait over BreakerWait starts (or continues) an
// over-threshold run, and a run lasting BreakerWindow trips — the
// subscriber is evicted with an explicit "slow consumer" close frame so it
// backs off and resumes instead of dragging the shared plane. Returns true
// when tripped (the caller's write loop exits). Write-loop only.
func (s *subscriber) checkBreaker(b *Broker, wait time.Duration) bool {
	if wait < b.cfg.BreakerWait {
		s.slowSince = time.Time{}
		return false
	}
	now := time.Now()
	if s.slowSince.IsZero() {
		s.slowSince = now
		return false
	}
	if now.Sub(s.slowSince) < b.cfg.BreakerWindow {
		return false
	}
	b.met.Counter("broker.breaker_trips").Inc()
	if b.gov != nil {
		b.gov.NoteBreakerTrip()
	}
	b.evictSub(s, codec.CloseSlowConsumer,
		fmt.Sprintf("slow consumer: queue wait %v over %v for %v", wait, b.cfg.BreakerWait, b.cfg.BreakerWindow))
	return true
}

// evictSub is removeSub with an explicit close-reason code for the
// subscriber's goodbye frame.
func (b *Broker) evictSub(s *subscriber, code codec.CloseReason, reason string) {
	s.closeCode.Store(int32(code))
	b.removeSub(s, true, reason)
}

// sendCloseFrame best-effort-writes the eviction goodbye before the
// connection is severed: a zero-length unsequenced frame carrying the
// reason TLV (a client with no close handler sees an empty frame — a
// heartbeat — and then EOF). TryLock keeps it safe against the write loop:
// if a writer is mid-frame (or wedged on a dead peer), the frame is skipped
// rather than interleaved or waited for — the client then sees the generic
// teardown it would have seen anyway.
func (b *Broker) sendCloseFrame(s *subscriber, code codec.CloseReason, msg string) {
	frame, _, err := codec.AppendFrameOpts(nil, b.reg, codec.None, nil,
		codec.FrameOpts{Anno: codec.AppendCloseAnno(nil, code, msg)})
	if err != nil || !s.wmu.TryLock() {
		return
	}
	defer s.wmu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(closeFrameTimeout))
	// A write deadline does not bound every transport (a fault-injected
	// stall sleeps through it), and the conn is severed right after this
	// returns anyway, so a watchdog close bounds the goodbye unconditionally.
	watchdog := time.AfterFunc(2*closeFrameTimeout, func() { s.conn.Close() })
	defer watchdog.Stop()
	_, _ = s.conn.Write(frame)
}

// readDrain consumes and discards anything the subscriber writes (pings),
// detecting dead or silent peers via the read timeout.
func (s *subscriber) readDrain(b *Broker) {
	defer b.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			b.met.Counter("broker.panics").Inc()
			b.logf("broker: subscriber %d read panic: %v", s.id, r)
		}
	}()
	rc := netutil.WithTimeouts(s.conn, b.cfg.ReadTimeout, 0)
	buf := make([]byte, 256)
	for {
		if _, err := rc.Read(buf); err != nil {
			evicted := false
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				evicted = true // silent past the read deadline: presumed dead
			}
			b.removeSub(s, evicted, fmt.Sprintf("peer read: %v", err))
			return
		}
	}
}

// removeSub tears a subscriber down exactly once: leave the encode plane,
// stop the write loop, close the connection, release every frame reference
// still queued, update accounting.
func (b *Broker) removeSub(s *subscriber, evicted bool, reason string) {
	s.once.Do(func() {
		s.member.Leave()
		hangup := func() {
			if evicted {
				// Say why before hanging up, so the client surfaces "evicted:
				// overload" (and backs off) instead of a generic read error.
				code := codec.CloseReason(s.closeCode.Load())
				if code == 0 {
					code = codec.CloseOverload
				}
				b.sendCloseFrame(s, code, reason)
			}
			s.conn.Close()
		}
		// Mark dead under qmu so no concurrent deliver can enqueue after the
		// drain below — the frame references would leak.
		s.qmu.Lock()
		s.dead = true
		parked := !s.greeted
		if parked {
			s.hangup = hangup // the handshake goroutine runs it after its reply
		}
		s.qmu.Unlock()
		close(s.quit)
		if !parked {
			hangup()
		}
		for {
			select {
			case d := <-s.queue:
				d.Frame.Release()
				continue
			default:
			}
			break
		}
		// The registry slot and gauge move together: a session evicted
		// before registration completed was never counted.
		s.st.smu.Lock()
		_, registered := s.st.subs[s.id]
		delete(s.st.subs, s.id)
		s.st.smu.Unlock()
		if registered {
			b.met.Gauge("broker.subscribers").Add(-1)
		}
		if evicted {
			b.met.Counter("broker.evictions").Inc()
		}
		b.logf("broker: subscriber %d detached (%s)", s.id, reason)
	})
}

// Shutdown stops the broker gracefully: listeners close, publishers finish
// their in-flight streams, subscriber queues drain, then connections close.
// The context bounds the wait; on expiry remaining connections are severed
// and ctx.Err() is returned.
func (b *Broker) Shutdown(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	lns := make([]net.Listener, 0, len(b.lns))
	for ln := range b.lns {
		lns = append(lns, ln)
	}
	b.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	// Stop the governor before draining: its sampler must not shed
	// subscribers that are mid-flush.
	if b.gov != nil {
		b.gov.Stop()
	}

	// Let publishers finish naturally so every submitted event reaches the
	// queues; past the deadline, sever them.
	if !waitCtx(ctx, &b.pubWG) {
		b.mu.Lock()
		for conn := range b.pubs {
			conn.Close()
		}
		b.mu.Unlock()
	}

	// Flush the encode plane: every block a publisher submitted (each was
	// handed to its channel's pipeline before the publisher finished) is
	// encoded and lands in its class queues before the subscriber drain
	// below starts.
	_ = b.plane.Close()

	// Ask every subscriber's write loop to flush its queue and hang up.
	for _, s := range b.allSubs() {
		close(s.drain)
	}

	if waitCtx(ctx, &b.connWG) {
		return nil
	}
	// Deadline passed: sever whatever is still blocked (e.g. a stalled
	// subscriber with no write timeout) and report the truncation.
	for _, s := range b.allSubs() {
		s.conn.Close()
	}
	b.mu.Lock()
	for conn := range b.pubs {
		conn.Close()
	}
	b.mu.Unlock()
	return ctx.Err()
}

// waitCtx waits for wg until ctx is done; it reports whether the group
// finished in time.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}
