// Package faultnet wraps a net.Conn with a seeded, schedulable fault plan:
// bit flips, byte truncation (swallowed mid-stream ranges), duplicated and
// reordered writes, mid-frame stalls, and abrupt connection resets. It is
// the chaos half of the repo's integrity story — internal/codec's CRC'd
// frames detect the damage, faultnet manufactures it deterministically.
//
// The plans drive the fault-matrix, placement and swarm-identity
// integration tests (tests/), which wrap their connections in process:
//
//	go test ./tests -run 'FaultMatrix|ReconnectResume'
//
// All faults apply to the write path, modelling a damaging link between
// the writer and its peer; reads pass through untouched. A Conn is safe
// for concurrent use.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjectedReset is returned from Write once a plan's reset point is
// reached; the underlying connection is closed abruptly.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Plan schedules faults against the absolute byte offset of the written
// stream (flip, drop, stall, reset) or the ordinal of the Write call
// (dup, reorder). The zero Plan injects nothing.
type Plan struct {
	// Seed makes every random choice (flip positions, flipped bits)
	// reproducible. Zero behaves as 1.
	Seed int64

	// FlipPer flips one random bit of one random byte in every FlipPer-byte
	// window of the stream (0 = off). FlipPer=65536 is "one flipped byte
	// per 64 KB".
	FlipPer int

	// DropAt/DropLen silently swallow DropLen bytes starting at absolute
	// offset DropAt — a mid-stream truncation the receiver only notices
	// when frames stop lining up (DropLen 0 = off).
	DropAt, DropLen int

	// DupEvery writes every DupEvery-th Write call's bytes twice (0 = off).
	DupEvery int

	// ReorderEvery holds every ReorderEvery-th Write call's bytes back and
	// emits them after the following write — adjacent-write reordering
	// (0 = off).
	ReorderEvery int

	// StallAt/Stall pause the writer for Stall once the stream crosses
	// offset StallAt, splitting the in-flight write so the stall lands
	// mid-frame (Stall 0 = off).
	StallAt int
	Stall   time.Duration

	// ResetAt closes the underlying connection abruptly once ResetAt bytes
	// have been written; the offending Write returns ErrInjectedReset
	// (0 = off).
	ResetAt int
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.FlipPer > 0 || p.DropLen > 0 || p.DupEvery > 0 ||
		p.ReorderEvery > 0 || p.Stall > 0 || p.ResetAt > 0
}

// String renders the plan in ParsePlan's syntax.
func (p Plan) String() string {
	var parts []string
	if p.FlipPer > 0 {
		parts = append(parts, fmt.Sprintf("flip=%d", p.FlipPer))
	}
	if p.DropLen > 0 {
		parts = append(parts, fmt.Sprintf("drop=%d:%d", p.DropAt, p.DropLen))
	}
	if p.DupEvery > 0 {
		parts = append(parts, fmt.Sprintf("dup=%d", p.DupEvery))
	}
	if p.ReorderEvery > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%d", p.ReorderEvery))
	}
	if p.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stall=%d:%s", p.StallAt, p.Stall))
	}
	if p.ResetAt > 0 {
		parts = append(parts, fmt.Sprintf("reset=%d", p.ResetAt))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan reads the plan syntax: comma-separated key=value pairs
//
//	flip=N          one random bit flip per N-byte window
//	drop=OFF:LEN    swallow LEN bytes at offset OFF
//	dup=N           duplicate every Nth write
//	reorder=N       swap every Nth write with its successor
//	stall=OFF:DUR   pause DUR (time.ParseDuration) at offset OFF
//	reset=OFF       abruptly close the connection at offset OFF
//	seed=N          RNG seed for reproducibility
//
// An empty string parses to the zero (fault-free) Plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faultnet: %q is not key=value", field)
		}
		atoi := func(v string) (int, error) {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("faultnet: %s=%q: want a non-negative integer", key, v)
			}
			return n, nil
		}
		var err error
		switch key {
		case "flip":
			p.FlipPer, err = atoi(val)
		case "drop":
			off, length, ok := strings.Cut(val, ":")
			if !ok {
				return p, fmt.Errorf("faultnet: drop=%q: want OFF:LEN", val)
			}
			if p.DropAt, err = atoi(off); err == nil {
				p.DropLen, err = atoi(length)
			}
		case "dup":
			p.DupEvery, err = atoi(val)
		case "reorder":
			p.ReorderEvery, err = atoi(val)
		case "stall":
			off, dur, ok := strings.Cut(val, ":")
			if !ok {
				return p, fmt.Errorf("faultnet: stall=%q: want OFF:DURATION", val)
			}
			if p.StallAt, err = atoi(off); err == nil {
				p.Stall, err = time.ParseDuration(dur)
			}
		case "reset":
			p.ResetAt, err = atoi(val)
		case "seed":
			var n int
			n, err = strconv.Atoi(val)
			p.Seed = int64(n)
		default:
			return p, fmt.Errorf("faultnet: unknown fault %q", key)
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// Conn is a net.Conn whose writes pass through a fault plan.
type Conn struct {
	net.Conn
	plan Plan

	mu       sync.Mutex
	rng      *rand.Rand
	off      int // absolute bytes admitted to the stream
	writes   int // Write call ordinal
	window   int // flip window index
	nextFlip int // absolute offset of the next bit flip
	stalled  bool
	reset    bool
	held     []byte // chunk delayed by the reorder fault
}

// Wrap returns conn with plan applied to every Write. A disabled plan still
// wraps (so callers need no special case); it just never mutates anything.
func Wrap(conn net.Conn, plan Plan) *Conn {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Conn{Conn: conn, plan: plan, rng: rand.New(rand.NewSource(seed))}
	if plan.FlipPer > 0 {
		c.nextFlip = c.rng.Intn(plan.FlipPer)
	}
	return c
}

// Write admits p through the fault plan. It reports len(p) on success even
// when bytes were mutated or swallowed — from the caller's perspective the
// write "worked"; only the peer sees the damage. After the plan's reset
// point every call returns ErrInjectedReset.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, ErrInjectedReset
	}
	c.writes++

	// Reordering: hold this chunk, emit it after the next one.
	if c.plan.ReorderEvery > 0 && c.writes%c.plan.ReorderEvery == 0 && c.held == nil {
		c.held = append([]byte(nil), p...)
		return len(p), nil
	}
	repeat := 1
	if c.plan.DupEvery > 0 && c.writes%c.plan.DupEvery == 0 {
		repeat = 2
	}
	for i := 0; i < repeat; i++ {
		if err := c.admit(p); err != nil {
			return 0, err
		}
	}
	if held := c.held; held != nil {
		c.held = nil
		if err := c.admit(held); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Close flushes any chunk held by the reorder fault, then closes the
// underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	if held := c.held; held != nil && !c.reset {
		c.held = nil
		_ = c.admit(held)
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// admit advances the stream by b, applying byte-offset faults. Callers hold
// c.mu.
func (c *Conn) admit(b []byte) error {
	b = c.flip(b)
	for len(b) > 0 {
		if c.plan.ResetAt > 0 && c.off >= c.plan.ResetAt {
			c.reset = true
			c.Conn.Close()
			return ErrInjectedReset
		}
		if c.plan.Stall > 0 && !c.stalled && c.off >= c.plan.StallAt {
			c.stalled = true
			time.Sleep(c.plan.Stall)
		}
		// Segment until the next scheduled event so stalls and resets land
		// mid-write (and therefore mid-frame).
		n := len(b)
		limit := func(at int) {
			if at > c.off && at-c.off < n {
				n = at - c.off
			}
		}
		if c.plan.ResetAt > 0 {
			limit(c.plan.ResetAt)
		}
		if c.plan.Stall > 0 && !c.stalled {
			limit(c.plan.StallAt)
		}
		seg := b[:n]
		b = b[n:]
		if err := c.emit(seg); err != nil {
			return err
		}
		c.off += n
	}
	return nil
}

// emit writes seg minus any dropped range. Callers hold c.mu.
func (c *Conn) emit(seg []byte) error {
	if c.plan.DropLen > 0 {
		dropStart, dropEnd := c.plan.DropAt, c.plan.DropAt+c.plan.DropLen
		segStart, segEnd := c.off, c.off+len(seg)
		if dropStart < segEnd && segStart < dropEnd {
			pre := seg[:clamp(dropStart-segStart, 0, len(seg))]
			post := seg[clamp(dropEnd-segStart, 0, len(seg)):]
			if err := writeAll(c.Conn, pre); err != nil {
				return err
			}
			return writeAll(c.Conn, post)
		}
	}
	return writeAll(c.Conn, seg)
}

// flip applies the windowed bit flips due within b, copying only when a
// flip actually lands. Callers hold c.mu.
func (c *Conn) flip(b []byte) []byte {
	if c.plan.FlipPer <= 0 {
		return b
	}
	end := c.off + len(b)
	var out []byte
	for c.nextFlip < end {
		if c.nextFlip >= c.off {
			if out == nil {
				out = append([]byte(nil), b...)
			}
			out[c.nextFlip-c.off] ^= 1 << c.rng.Intn(8)
		}
		c.window++
		c.nextFlip = c.window*c.plan.FlipPer + c.rng.Intn(c.plan.FlipPer)
	}
	if out != nil {
		return out
	}
	return b
}

func writeAll(conn net.Conn, b []byte) error {
	for len(b) > 0 {
		n, err := conn.Write(b)
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// listener wraps Accept so every accepted connection carries the plan,
// each with a distinct derived seed (so two subscribers don't see
// byte-identical damage).
type listener struct {
	net.Listener
	plan Plan

	mu sync.Mutex
	n  int64
}

// WrapListener applies plan to every connection ln accepts. With a
// disabled plan, ln is returned unchanged.
func WrapListener(ln net.Listener, plan Plan) net.Listener {
	if !plan.Enabled() {
		return ln
	}
	return &listener{Listener: ln, plan: plan}
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.n++
	plan := l.plan
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	plan.Seed += l.n * 7919 // distinct but reproducible per-conn streams
	l.mu.Unlock()
	return Wrap(conn, plan), nil
}
