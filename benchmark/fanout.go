package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/metrics"
	"ccx/internal/netsim"
	"ccx/internal/obs"
	"ccx/internal/selector"
)

// fanoutSpec is a brokered workload: one publisher → broker → four
// subscribers, two on loopback TCP and two on ShapedPipe(Fast100), driven
// by an open-loop generator.
type fanoutSpec struct {
	rates       []float64 // the ladder, blocks per second
	weights     []int     // each rung's share of the window, in parts
	latencyRate float64   // the rung latency_p50/p90 are taken at
	churn       bool      // subscribers take turns disconnecting and resuming
}

// parts is the number of equal parts the window is cut into.
func (s fanoutSpec) parts() int { return sumInts(s.weights) }

const (
	fanoutBlock   = 16 << 10
	fanoutChannel = "bench"
	fanoutSubs    = 4 // two classes × two members: the smallest fan-out with sharing in each class
	// brokerBlockHint is ccbroker's -block default, the block-size hint of
	// the per-subscriber selection engines.
	brokerBlockHint = 64 << 10

	churnEvery = 250 * time.Millisecond // a subscriber disconnects this often, round-robin
	churnAway  = 100 * time.Millisecond // and stays away this long: 20 blocks at 200/s, well inside the replay window
)

// fanoutRig is one set-up topology, configured the way ccbroker, ccsend
// -channel and ccrecv -channel configure themselves from flag defaults.
type fanoutRig struct {
	cfg    runConfig
	corpus *corpus
	clk    realClock
	rec    *recorder

	broker *broker.Broker
	addr   string
	serve  chan error

	pub    net.Conn
	tx     *txStats
	writer *core.Writer
	// published is the last block handed to the publisher's Writer: what a
	// resuming subscriber has to hold to count as caught up.
	published atomic.Uint64

	subs []*subscriber
}

func setupFanout(cfg runConfig, spec fanoutSpec, clk realClock, rec *recorder) (*fanoutRig, error) {
	r := &fanoutRig{cfg: cfg, corpus: newCorpus(cfg.seed, fanoutBlock), clk: clk, rec: rec, tx: newTxStats(), serve: make(chan error, 1)}

	bcfg := broker.Config{
		Channels:     []string{fanoutChannel},
		QueueLen:     broker.DefaultQueueLen,
		Policy:       broker.DropOldest,
		ReplayBlocks: broker.DefaultReplayBlocks,
		ReplayBytes:  broker.DefaultReplayBytes,
		Metrics:      metrics.NewRegistry(),
		Trace:        obs.NewDecisionLog(obs.DefaultLogSize),
	}
	bcfg.Engine.Selector = selector.DefaultConfig()
	bcfg.Engine.Selector.BlockSize = brokerBlockHint
	bcfg.Engine.Workers = runtime.GOMAXPROCS(0)
	if rec != nil {
		bcfg.Engine.Registry = tracedRegistry(rec, laneBroker, false, nil)
		bcfg.Engine.Policy = timedPolicy{inner: selector.RatioPolicy{Config: bcfg.Engine.Selector}, rec: rec, lane: laneBroker}
	}
	b, err := broker.New(bcfg)
	if err != nil {
		return nil, err
	}
	r.broker = b
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.addr = ln.Addr().String()
	if rec != nil {
		ln = timedListener{Listener: ln, rec: rec}
	}
	go func() { r.serve <- b.Serve(ln) }()

	// Subscribers attach before anything is published, so each must see
	// every block from 1.
	for i := 0; i < fanoutSubs; i++ {
		s := &subscriber{id: i, shaped: i >= fanoutSubs/2, rig: r, done: make(chan error, 1)}
		if spec.churn {
			s.track = new(core.DeliveryTracker) // what ccrecv -resume keeps across reconnects
		}
		if rec != nil {
			s.rx = new(rxScope)
			s.reg = tracedRegistry(rec, laneReceiver, false, s.rx)
		}
		conn, err := s.connect()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("subscriber %d: %w", i, err)
		}
		s.conn = conn
		r.subs = append(r.subs, s)
	}

	if r.pub, err = net.Dial("tcp", r.addr); err != nil {
		r.close()
		return nil, err
	}
	start := rec.now()
	if err := broker.HandshakePublish(r.pub, fanoutChannel); err != nil {
		r.close()
		return nil, fmt.Errorf("publisher: %w", err)
	}
	rec.add(span{Name: spanHandshake, Lane: laneSender, Start: start, End: rec.now()})
	sel := selector.DefaultConfig()
	sel.BlockSize = fanoutBlock
	ecfg := core.Config{
		Selector:  sel,
		Workers:   runtime.GOMAXPROCS(0),
		Placement: selector.PlacementPolicy{Mode: selector.PlacementPublisher, Node: selector.PlacementPublisher, Brokered: true},
	}
	pubConn := r.pub
	if rec != nil {
		ecfg.Registry = tracedRegistry(rec, laneSender, true, nil)
		ecfg.Policy = timedPolicy{inner: selector.RatioPolicy{Config: sel}, rec: rec, lane: laneSender, probeSpans: true}
		pubConn = &timedConn{Conn: r.pub, rec: rec, lane: laneSender, seqByWrite: true}
	}
	engine, err := core.NewEngine(ecfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.writer = core.NewWriter(pubConn, engine, r.tx.onBlock)
	return r, nil
}

// close tears the topology down: subscribers hang up, then the broker
// drains and stops.
func (r *fanoutRig) close() {
	if r.writer != nil {
		_ = r.writer.Close() // stops the encode pipeline; a no-op after the run's own Close
	}
	if r.pub != nil {
		r.pub.Close()
	}
	for _, s := range r.subs {
		s.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.broker.Shutdown(ctx); err != nil {
		fmt.Fprintln(logw, "broker shutdown:", err)
	}
	if r.addr != "" { // Serve was started
		<-r.serve
	}
}

// subscriber is one consumer: the system's receive path (core.Reader, with
// the delivery tracker ccrecv -resume uses) behind a connection that the
// churn controller may cut.
type subscriber struct {
	id     int
	shaped bool
	rig    *fanoutRig
	sink   *sink
	track  *core.DeliveryTracker // nil unless the workload resumes
	rx     *rxScope              // nil untraced
	reg    *codec.Registry       // nil = built-ins

	mu       sync.Mutex
	conn     net.Conn // nil while reconnecting
	kicked   bool
	kickedAt time.Duration
	stopped  bool
	attempts int64

	handshakeMs []float64
	catchupMs   []float64
	// A resume in progress: reconnect began at catchStart and is caught up
	// once the sink holds catchTarget.
	catchStart  int64
	catchTarget uint64

	done chan error
}

// connect opens a connection to the broker and subscribes, or resumes
// after the last delivered sequence number when there is one.
func (s *subscriber) connect() (net.Conn, error) {
	r := s.rig
	attempt := atomic.AddInt64(&s.attempts, 1)
	var conn net.Conn
	if s.shaped {
		client, server := netsim.ShapedPipe(netsim.Fast100, r.cfg.seed+int64(1000*(s.id+1))+attempt)
		if r.rec != nil {
			server = &timedConn{Conn: server, rec: r.rec, lane: laneBroker}
		}
		r.broker.HandleConn(server)
		conn = client
	} else {
		var err error
		if conn, err = net.Dial("tcp", r.addr); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	spanStart := r.rec.now()
	var err error
	if last, started := s.lastDelivered(); started {
		var first uint64
		first, err = broker.HandshakeResume(conn, fanoutChannel, last)
		if err == nil && first > last+1 {
			// The replay window no longer reaches back: an explicit gap,
			// which the oracle then counts as missing blocks.
			s.track.NoteGap(first - last - 1)
			s.track.SkipTo(first)
		}
	} else {
		err = broker.HandshakeSubscribe(conn, fanoutChannel)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.handshakeMs = append(s.handshakeMs, ms(time.Since(start)))
	r.rec.add(span{Name: spanHandshake, Lane: laneReceiver, Start: spanStart, End: r.rec.now()})
	return conn, nil
}

func (s *subscriber) lastDelivered() (uint64, bool) {
	if s.track == nil {
		return 0, false
	}
	return s.track.LastDelivered()
}

// readLoop drains one connection through core.Reader, checking every block.
func (s *subscriber) readLoop(conn net.Conn) error {
	if s.rx != nil {
		conn = &timedConn{Conn: conn, rec: s.rig.rec, lane: laneReceiver, rx: s.rx}
	}
	rd := core.NewReader(conn, s.reg, nil)
	rd.SetCloseHandler(func(anno []byte) error {
		if reason, msg, ok := codec.ParseCloseAnno(anno); ok {
			return &broker.EvictedError{Reason: reason, Msg: msg}
		}
		return nil
	})
	if s.track != nil {
		rd.SetDeliveryTracker(s.track)
	}
	return drain(rd, fanoutBlock, s.sink, s.rig.rec, s.rx, s.noteCaughtUp)
}

// noteCaughtUp closes a pending resume once the subscriber holds every
// block that had been published when its reconnect began.
func (s *subscriber) noteCaughtUp() {
	if s.catchTarget == 0 || s.sink.highest.Load() < s.catchTarget {
		return
	}
	if s.sink.win.has(s.catchStart) {
		s.catchupMs = append(s.catchupMs, float64(int64(s.rig.clk.Now())-s.catchStart)/1e6)
	}
	s.catchTarget = 0
}

// run reads until stopped; after a kick it stays away for churnAway and
// then resumes.
func (s *subscriber) run() {
	conn := s.conn
	for {
		err := s.readLoop(conn)
		conn.Close()
		s.mu.Lock()
		kicked, at, stopped := s.kicked, s.kickedAt, s.stopped
		s.kicked, s.conn = false, nil
		s.mu.Unlock()
		switch {
		case stopped:
			s.done <- nil
			return
		case !kicked:
			s.done <- fmt.Errorf("subscriber %d: stream ended: %w", s.id, err)
			return
		}
		s.rig.clk.SleepUntil(at + churnAway)
		s.catchStart = int64(s.rig.clk.Now())
		s.catchTarget = s.rig.published.Load()
		if conn, err = s.connect(); err != nil {
			s.done <- fmt.Errorf("subscriber %d: resume: %w", s.id, err)
			return
		}
		s.sink.attachedAt = int64(s.rig.clk.Now())
		s.noteCaughtUp() // nothing was missed: caught up at the handshake
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			s.done <- nil
			return
		}
		s.conn = conn
		s.mu.Unlock()
	}
}

// kick cuts the current connection; run then resumes. A subscriber that is
// still reconnecting is left alone.
func (s *subscriber) kick() bool {
	s.mu.Lock()
	conn := s.conn
	if conn == nil || s.kicked {
		s.mu.Unlock()
		return false
	}
	s.kicked, s.kickedAt = true, s.rig.clk.Now()
	s.mu.Unlock()
	conn.Close()
	return true
}

func (s *subscriber) stop() {
	s.mu.Lock()
	s.stopped = true
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// shiftedClock is the run clock moved so that the schedule starts at 0.
type shiftedClock struct {
	clk    realClock
	offset time.Duration
}

func (c shiftedClock) Now() time.Duration         { return c.clk.Now() - c.offset }
func (c shiftedClock) SleepUntil(t time.Duration) { c.clk.SleepUntil(t + c.offset) }

// brokerSnap is the broker's metrics registry at one instant.
type brokerSnap struct {
	values map[string]float64
	hists  map[string]metrics.HistogramSnapshot
}

func snapBroker(reg *metrics.Registry) brokerSnap {
	s := brokerSnap{values: make(map[string]float64), hists: make(map[string]metrics.HistogramSnapshot)}
	for _, v := range reg.Views() {
		if v.Kind == metrics.KindHistogram {
			s.hists[v.Name] = v.Hist
		} else {
			s.values[v.Name] = v.Value
		}
	}
	return s
}

// delta is how much counter name grew between two snapshots.
func (a brokerSnap) delta(b brokerSnap, name string) float64 { return b.values[name] - a.values[name] }

// subDelta sums the growth of every per-subscriber counter whose name
// contains part (sub.<id>.bytes_out, sub.<id>.method.<m>, ...).
func (a brokerSnap) subDelta(b brokerSnap, part string) float64 {
	var sum float64
	for name, v := range b.values {
		if strings.HasPrefix(name, "sub.") && strings.Contains(name, part) {
			sum += v - a.values[name]
		}
	}
	return sum
}

// histDelta is the histogram of the observations made between a and b.
func (a brokerSnap) histDelta(b brokerSnap, name string) metrics.HistogramSnapshot {
	after, before := b.hists[name], a.hists[name]
	d := metrics.HistogramSnapshot{Bounds: after.Bounds, Counts: append([]int64(nil), after.Counts...), Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range before.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	return d
}

// runFanout sets the topology up (setupRepeats times, keeping the last),
// drives the open-loop schedule, and checks every subscriber's stream.
func runFanout(cfg runConfig, spec fanoutSpec, clk realClock, rec *recorder) (*measured, error) {
	rig, setupS, err := repeatSetup(func() (*fanoutRig, error) { return setupFanout(cfg, spec, clk, rec) })
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: setupS, layer: make(map[string]float64)}

	sched := ladderSchedule(spec.rates, spec.weights, cfg.warmup, cfg.measure)
	offset := clk.Now() + 10*time.Millisecond
	pace := newPacer(sched, shiftedClock{clk: clk, offset: offset})
	_, end := sched.bounds(len(sched.segs) - 1)
	m.win = newWindow(int64(offset+cfg.warmup), end-cfg.warmup, spec.parts())

	for _, s := range rig.subs {
		s.sink = newSink(rig.corpus, clk, m.win)
		go s.run()
	}
	var snaps [2]brokerSnap // the broker's registry at the window's edges
	ws := startWindowSampler(clk, m.win, func(edge int) { snaps[edge] = snapBroker(rig.broker.Metrics()) })

	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		if !spec.churn {
			return
		}
		t := time.NewTicker(churnEvery)
		defer t.Stop()
		for k := 0; ; k++ {
			select {
			case <-stopChurn:
				return
			case <-t.C:
				rig.subs[k%len(rig.subs)].kick()
			}
		}
	}()

	// Publisher: open loop. Blocks go out on the schedule whatever the
	// system does, stamped with the instant they were due.
	blk := make([]byte, fanoutBlock)
	firstSeq := make([]uint64, len(sched.segs)+1) // first block of each segment; the extra entry ends the last one
	pubWriteUs := newHist()
	var seq uint64
	var sendErr error
	for sendErr == nil {
		due, seg, ok := pace.wait()
		if !ok {
			break
		}
		seq++
		if firstSeq[seg] == 0 {
			firstSeq[seg] = seq
			if seg == 1 {
				rig.tx.firstSeq.Store(seq)
			}
		}
		rig.published.Store(seq)
		var took time.Duration
		took, sendErr = sendBlock(rig.writer, rig.corpus, blk, seq, int64(due+offset), rec)
		if seg >= 1 { // segment 0 is the warm-up
			m.blocksSent++
			pubWriteUs.Observe(float64(took) / 1e3)
		}
	}
	firstSeq[len(sched.segs)] = seq + 1
	if err := rig.writer.Close(); sendErr == nil {
		sendErr = err
	}
	close(stopChurn)
	<-churnDone
	<-ws.done
	m.res = [2]resources{ws.before, ws.after}

	var subErr error
	for _, s := range rig.subs {
		if !s.sink.waitFor(seq, drainTimeout) {
			fmt.Fprintf(logw, "subscriber %d holds %d of %d blocks after %v\n", s.id, s.sink.highest.Load(), seq, drainTimeout)
		}
	}
	rig.close()
	for _, s := range rig.subs {
		select {
		case err := <-s.done:
			if err != nil && subErr == nil {
				subErr = err
			}
		case <-time.After(drainTimeout):
			subErr = errors.New("subscriber did not stop")
		}
	}
	if sendErr != nil {
		return nil, fmt.Errorf("publisher: %w", sendErr)
	}
	if subErr != nil {
		return nil, subErr
	}

	fanoutAccount(m, spec, rig, pace, firstSeq, seq)
	l := m.layer
	l["broker.publish_us_p50"] = quantile(pubWriteUs.Snapshot(), 0.50)
	txLayerValues(m, rig.tx)
	brokerLayerValues(m, snaps[0], snaps[1])
	return m, nil
}

// fanoutAccount folds every subscriber's stream into m and derives the
// generator's and the ladder's per-layer values. Each rung of the ladder
// owns a run of the window's bins; firstSeq[r+1] is the first block sent on
// rung r (segment 0 is the warm-up) and lastSeq the last block published.
func fanoutAccount(m *measured, spec fanoutSpec, rig *fanoutRig, pace *pacer, firstSeq []uint64, lastSeq uint64) {
	binsPerPart := m.win.bins / spec.parts()
	rungBins := make([][]int, len(spec.rates)) // the bins each rung owns
	var latBins []int
	next := 0
	for r, rate := range spec.rates {
		for i := 0; i < spec.weights[r]*binsPerPart; i++ {
			rungBins[r] = append(rungBins[r], next)
			next++
		}
		if rate == spec.latencyRate {
			latBins = rungBins[r]
		}
	}
	rungMissing := make([]int64, len(spec.rates))
	var handshakeMs, catchupMs []float64
	for _, s := range rig.subs {
		s.sink.or.finish(lastSeq)
		m.addSink(s.sink, latBins)
		for _, g := range s.sink.or.gaps {
			for r := range spec.rates {
				lo, hi := max(g[0], firstSeq[r+1]), min(g[1], firstSeq[r+2]-1)
				if hi >= lo {
					rungMissing[r] += int64(hi - lo + 1)
				}
			}
		}
		handshakeMs = append(handshakeMs, s.handshakeMs...)
		catchupMs = append(catchupMs, s.catchupMs...)
	}
	m.attempted = int64(lastSeq) * int64(len(rig.subs))

	l := m.layer
	var okRate float64
	var lags []float64
	var overLimit, deliveries int64
	for r, rate := range spec.rates {
		bins := make([]metrics.HistogramSnapshot, len(rungBins[r])) // this rung's bins, all subscribers merged
		for i, bin := range rungBins[r] {
			for _, s := range rig.subs {
				bins[i] = mergeHists(bins[i], s.sink.latency[bin].Snapshot())
			}
			overLimit += countAbove(bins[i], latencyLimitMs)
			deliveries += bins[i].Count
		}
		overLimit += rungMissing[r] // a lost delivery misses any limit
		deliveries += rungMissing[r]
		p99 := binnedQuantile(bins, 0.99)
		l[fmt.Sprintf("loadgen.latency_p99_ms_at_%d", int(rate))] = p99
		// A rung is ok when its tail met the limit, nothing was lost, and its
		// last bin's median is not far above its first's (no growing backlog).
		first, last := quantile(bins[0], 0.5), quantile(bins[len(bins)-1], 0.5)
		if p99 <= latencyLimitMs && rungMissing[r] == 0 && last <= 2*first+latencyLimitMs/10 && rate > okRate {
			okRate = rate
		}
		seg := r + 1
		if rate == spec.latencyRate {
			l["loadgen.late_share"] = pace.lateShare(seg)
		}
		lags = append(lags, pace.lagMs[seg]...)
	}
	l["loadgen.rate_ok_max_blocks_s"] = okRate
	l["loadgen.lag_ms_p99"] = tailOf(lags, 0.99)
	if deliveries > 0 {
		l["loadgen.over_limit_share"] = float64(overLimit) / float64(deliveries)
	}
	l["broker.handshake_ms_p50"] = median(handshakeMs)
	l["broker.resume_catchup_ms_p50"] = median(catchupMs)
	l["broker.resume_catchup_ms_p90"] = tailOf(catchupMs, 0.90)
}

// brokerLayerValues fills the per-layer values read from the broker's own
// registry — the instruments /metrics serves — as growth over the window.
func brokerLayerValues(m *measured, a, b brokerSnap) {
	l := m.layer
	wall := m.win.seconds()
	encodes, deliveries := a.delta(b, "encplane.encodes"), a.delta(b, "encplane.deliveries")
	l["encplane.encodes"], l["encplane.deliveries"] = encodes, deliveries
	if encodes > 0 {
		l["encplane.dedup_ratio"] = deliveries / encodes
	}
	hits, misses := a.delta(b, "encplane.cache_hits"), a.delta(b, "encplane.cache_misses")
	if hits+misses > 0 {
		l["encplane.cache_hit_share"] = hits / (hits + misses)
	}
	l["encplane.encode_busy_share"] = a.histDelta(b, "encplane.encode_seconds").Sum / wall
	if qw := a.histDelta(b, "broker.queue_wait_seconds"); qw.Count > 0 {
		l["broker.queue_wait_ms_p50"] = qw.Quantile(0.50) * 1e3
		l["broker.queue_wait_ms_p99"] = qw.Quantile(0.99) * 1e3
	}
	// Every block written to a subscriber ticks one sub.<id>.method.<m>
	// counter; a vectored batch of k frames saves k-1 writes. On this path
	// the method mix that matters is the one the subscribers were served.
	if written := a.subDelta(b, ".method."); written > 0 {
		saved := a.delta(b, "broker.writev_frames") - a.delta(b, "broker.writev_batches")
		l["broker.writes_per_delivery"] = (written - saved) / written
		for _, m := range []codec.Method{codec.None, codec.Huffman, codec.LempelZiv, codec.BurrowsWheeler} {
			l["selector.method_share."+methodKey(m)] = a.subDelta(b, ".method."+m.String()) / written
		}
	}
	l["broker.drops"] = a.delta(b, "broker.drops")
	l["broker.evictions"] = a.delta(b, "broker.evictions")
	l["broker.resumes"] = a.delta(b, "broker.resumes")
	l["broker.resume_replayed_blocks"] = a.delta(b, "broker.resume_replayed_blocks")
	l["broker.resume_gaps"] = a.delta(b, "broker.resume_gaps")
	m.appBytes = int64(a.subDelta(b, ".bytes_in"))
	m.wireBytes = int64(a.subDelta(b, ".bytes_out"))
	l["netsim.wire_bytes"] = float64(m.wireBytes)
}
