package netsim

import (
	"net"
	"time"
)

// ShapedPipe returns an in-memory, full-duplex connection pair whose writes
// are paced in real time to the given link profile (rate, latency, jitter).
// It lets the live io adapters (core.Writer/Reader) and the echo bridge be
// exercised against the paper's link classes without leaving the process:
// unlike the virtual-clock Link, a shaped pipe actually takes wall time.
//
// Each direction is shaped independently with its own jitter stream.
func ShapedPipe(p Profile, seed int64) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return &shapedConn{Conn: a, link: NewLink(p, RealClock{}, seed)},
		&shapedConn{Conn: b, link: NewLink(p, RealClock{}, seed+1)}
}

// shapedConn delays every write by the link's computed transfer time before
// handing the bytes to the underlying pipe.
type shapedConn struct {
	net.Conn
	link *Link
}

var _ net.Conn = (*shapedConn)(nil)

// Write implements net.Conn with rate pacing.
func (c *shapedConn) Write(p []byte) (int, error) {
	if d := c.link.TransferTime(len(p)); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}
