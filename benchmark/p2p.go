package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/netsim"
	"ccx/internal/selector"
)

// p2pSpec is a point-to-point workload: core.Writer → link → core.Reader,
// one sender in a closed loop.
type p2pSpec struct {
	blockSize int
	// shaped selects netsim.ShapedPipe(Fast100) — an in-memory pipe whose
	// writes sleep to pace 7.5 MB/s — instead of loopback TCP.
	shaped bool
}

// p2pRig is one set-up topology, configured the way ccsend and ccrecv
// configure themselves from their flag defaults.
type p2pRig struct {
	corpus *corpus
	engine *core.Engine
	tx     *txStats
	writer *core.Writer
	reader *core.Reader
	send   net.Conn // the conn core.Writer writes to
	recv   net.Conn
	rx     *rxScope // nil untraced
}

// close stops everything set-up started: the Writer's encode pipeline
// (nothing is buffered unless a run was cut short) and both conns.
func (r *p2pRig) close() {
	if r.writer != nil {
		_ = r.writer.Close() // a second Close after the run's own is a no-op
	}
	r.send.Close()
	r.recv.Close()
}

// setupP2P generates the corpus and connects sender and receiver.
func setupP2P(cfg runConfig, spec p2pSpec, rec *recorder) (*p2pRig, error) {
	r := &p2pRig{corpus: newCorpus(cfg.seed, spec.blockSize), tx: newTxStats()}
	if spec.shaped {
		r.send, r.recv = netsim.ShapedPipe(netsim.Fast100, cfg.seed)
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		if r.send, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return nil, err
		}
		if r.recv, err = ln.Accept(); err != nil {
			r.send.Close()
			return nil, err
		}
	}

	sel := selector.DefaultConfig()
	sel.BlockSize = spec.blockSize
	ecfg := core.Config{
		Selector:  sel,
		Workers:   runtime.GOMAXPROCS(0),
		Placement: selector.PlacementPolicy{Mode: selector.PlacementPublisher, Node: selector.PlacementPublisher},
	}
	var rxReg *codec.Registry
	var txConn, rxConn = r.send, r.recv
	if rec != nil {
		r.rx = new(rxScope)
		ecfg.Registry = tracedRegistry(rec, laneSender, true, nil)
		ecfg.Policy = timedPolicy{inner: selector.RatioPolicy{Config: sel}, rec: rec, lane: laneSender, probeSpans: true}
		rxReg = tracedRegistry(rec, laneReceiver, false, r.rx)
		txConn = &timedConn{Conn: r.send, rec: rec, lane: laneSender, seqByWrite: true}
		rxConn = &timedConn{Conn: r.recv, rec: rec, lane: laneReceiver, rx: r.rx}
	}
	engine, err := core.NewEngine(ecfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.engine = engine
	r.writer = core.NewWriter(txConn, engine, r.tx.onBlock)
	r.reader = core.NewReader(rxConn, rxReg, nil)
	return r, nil
}

// runP2P sets the topology up (setupRepeats times, keeping the last), runs
// the closed-loop sender through warm-up and the measured window, and
// checks every received block.
func runP2P(cfg runConfig, spec p2pSpec, clk realClock, rec *recorder) (*measured, error) {
	rig, setupS, err := repeatSetup(func() (*p2pRig, error) { return setupP2P(cfg, spec, rec) })
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: setupS, layer: make(map[string]float64)}
	defer rig.close()

	m.win = newWindow(int64(clk.Now()+cfg.warmup), cfg.measure, 1)
	sk := newSink(rig.corpus, clk, m.win)
	ws := startWindowSampler(clk, m.win, nil)

	recvDone := make(chan error, 1)
	go func() {
		err := drain(rig.reader, spec.blockSize, sk, rec, rig.rx, nil)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
			err = nil
		}
		recvDone <- err
	}()

	// Sender: closed loop — the next block is handed over as soon as
	// Writer.Write accepts the previous one (a bulk transfer waits for its
	// link). Latency is timed from the hand-over.
	blk := make([]byte, spec.blockSize)
	var seq uint64
	var sendErr error
	for sendErr == nil {
		stamp := int64(clk.Now())
		if stamp >= m.win.to {
			break
		}
		seq++
		if stamp >= m.win.from {
			if rig.tx.firstSeq.Load() == 0 {
				rig.tx.firstSeq.Store(seq)
			}
			m.blocksSent++
		}
		_, sendErr = sendBlock(rig.writer, rig.corpus, blk, seq, stamp, rec)
	}
	if err := rig.writer.Close(); sendErr == nil {
		sendErr = err
	}
	<-ws.done
	m.res = [2]resources{ws.before, ws.after}
	drained := sk.waitFor(seq, drainTimeout)
	rig.send.Close() // EOF for the receiver
	var recvErr error
	select {
	case recvErr = <-recvDone:
	case <-time.After(drainTimeout):
		recvErr = errors.New("receiver did not stop")
	}
	if sendErr != nil {
		return nil, fmt.Errorf("sender: %w", sendErr)
	}
	if recvErr != nil {
		return nil, fmt.Errorf("receiver: %w", recvErr)
	}
	if !drained {
		fmt.Fprintf(logw, "receiver holds %d of %d blocks after %v\n", sk.highest.Load(), seq, drainTimeout)
	}

	sk.or.finish(seq)
	allBins := make([]int, m.win.bins)
	for i := range allBins {
		allBins[i] = i
	}
	m.addSink(sk, allBins)
	m.attempted = int64(seq)
	m.appBytes, m.wireBytes = rig.tx.appBytes, rig.tx.wireBytes
	txLayerValues(m, rig.tx)
	return m, nil
}

// methodKey is a method's name inside metric names.
func methodKey(m codec.Method) string {
	switch m {
	case codec.LempelZiv:
		return "lz"
	case codec.BurrowsWheeler:
		return "bwt"
	}
	return m.String()
}

// txLayerValues fills the per-layer values that come from the sender's
// BlockResult stream.
func txLayerValues(m *measured, tx *txStats) {
	wall := m.win.seconds()
	l := m.layer
	if tx.blocks > 0 {
		n := float64(tx.blocks)
		for _, m := range []codec.Method{codec.None, codec.Huffman, codec.LempelZiv, codec.BurrowsWheeler} {
			l["selector.method_share."+methodKey(m)] = float64(tx.methods[m]) / n
		}
		l["selector.switches_per_100_blocks"] = float64(tx.switches) / n * 100
	}
	l["core.pipeline_wait_ms_p50"] = quantile(tx.pipeWait.Snapshot(), 0.50)
	l["netsim.write_wait_share"] = tx.sendBusy.Seconds() / wall
	l["netsim.wire_bytes"] = float64(tx.wireBytes)
	l["sampling.probe_busy_share"] = tx.probeBusy.Seconds() / wall
}
