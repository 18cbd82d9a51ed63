package main

import (
	"encoding/binary"
	"net"
	"sync/atomic"

	"ccx/internal/codec"
	"ccx/internal/selector"
)

// The traced run times the system only at its public seams: codecs through
// the registry, the selection policy, the conns handed to core and the
// broker, and the harness's own calls. Nothing here runs in the untraced
// run, which is where the end-to-end numbers come from.

// rxScope links the spans recorded underneath one Reader.Read call (conn
// reads, decompress) to the rx_read span the receiver records once the call
// returns. One receiver goroutine owns it, so a plain field suffices.
type rxScope struct {
	cur uint64 // ID reserved for the Read in progress
}

// blockSeq reads the harness stamp from an uncompressed block.
func blockSeq(block []byte) uint64 {
	if len(block) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(block[0:8])
}

// timedCodec records a span around every Compress and Decompress.
type timedCodec struct {
	inner codec.Codec
	rec   *recorder
	lane  string
	// linkTx makes a compress span the child of the tx_write span for the
	// same block (point-to-point sender); rx links a decompress span to the
	// receiver's Read in progress.
	linkTx bool
	rx     *rxScope
}

func (c timedCodec) Method() codec.Method { return c.inner.Method() }

func (c timedCodec) Compress(src []byte) ([]byte, error) {
	start := c.rec.now()
	out, err := c.inner.Compress(src)
	s := span{Name: spanCompress, Lane: c.lane, Seq: blockSeq(src), Start: start, End: c.rec.now()}
	if c.linkTx {
		s.Parent = txWriteID(s.Seq)
	}
	c.rec.add(s)
	return out, err
}

func (c timedCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	start := c.rec.now()
	out, err := c.inner.Decompress(src, origLen)
	s := span{Name: spanDecompress, Lane: c.lane, Seq: blockSeq(out), Start: start, End: c.rec.now()}
	if c.rx != nil {
		s.Parent = c.rx.cur
	}
	c.rec.add(s)
	return out, err
}

// tracedRegistry is the built-in codec set with every compressing method
// wrapped. None stays unwrapped: the framing layer recognises the genuine
// raw codec by type and skips a copy, and a wrapper would take that fast
// path away from the very workload that depends on it.
func tracedRegistry(rec *recorder, lane string, linkTx bool, rx *rxScope) *codec.Registry {
	reg := codec.NewRegistry()
	for _, m := range reg.Methods() {
		if m == codec.None {
			continue
		}
		inner, err := reg.Get(m)
		if err != nil {
			continue // Methods just listed it
		}
		reg.Register(timedCodec{inner: inner, rec: rec, lane: lane, linkTx: linkTx, rx: rx})
	}
	return reg
}

// timedPolicy records a span around every Select. With probeSpans it also
// records the sampling probe that produced the inputs: the engine probes
// immediately before it calls Select and reports the probe's duration in
// Inputs.ProbeTime, so the probe span ends where the select span starts.
type timedPolicy struct {
	inner      selector.Policy
	rec        *recorder
	lane       string
	probeSpans bool
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Select(in selector.Inputs) selector.Decision {
	start := p.rec.now()
	d := p.inner.Select(in)
	end := p.rec.now()
	if p.probeSpans && in.ProbeTime > 0 {
		p.rec.add(span{Name: spanProbe, Lane: p.lane, Start: start - int64(in.ProbeTime), End: start})
	}
	p.rec.add(span{Name: spanSelect, Lane: p.lane, Start: start, End: end})
	return d
}

// timedConn records a span around every Read and Write of a conn handed to
// core or to the broker.
type timedConn struct {
	net.Conn
	rec  *recorder
	lane string
	// seqByWrite numbers writes 1, 2, 3, ... and links each to the tx_write
	// span of that block: core.Writer hands the conn exactly one frame per
	// Write, in block order.
	seqByWrite bool
	writes     atomic.Uint64
	rx         *rxScope // links reads to the receiver's Read in progress
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Write(p)
	s := span{Name: spanConnWrite, Lane: c.lane, Start: start, End: c.rec.now()}
	if c.seqByWrite {
		s.Seq = c.writes.Add(1)
		s.Parent = txWriteID(s.Seq)
	}
	c.rec.add(s)
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Read(p)
	s := span{Name: spanConnRead, Lane: c.lane, Start: start, End: c.rec.now()}
	if c.rx != nil {
		s.Parent = c.rx.cur
	}
	c.rec.add(s)
	return n, err
}

// timedListener hands the broker wrapped conns, the way faultnet wraps a
// listener. The broker then sees a plain net.Conn, not a *net.TCPConn, so
// its vectored writes become one Write per frame.
type timedListener struct {
	net.Listener
	rec *recorder
}

func (l timedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: conn, rec: l.rec, lane: laneBroker}, nil
}
