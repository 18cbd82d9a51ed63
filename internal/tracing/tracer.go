package tracing

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer is one hop's span recorder: it owns the sampling decision at the
// origin, mints trace contexts, and sinks spans into the hop's ring (and
// optionally a JSONL file). All methods are nil-safe — a nil *Tracer is
// the disabled tracer, so call sites carry no conditionals — and safe for
// concurrent use.
type Tracer struct {
	hop   string
	ring  *Ring
	start time.Time // monotonic epoch for Context.MonoNs

	// Head-based sampling: every period-th Sample() call says yes. A
	// deterministic stride (not a PRNG) keeps the hot path to one atomic
	// add and makes smoke tests reproducible; period 0 disables, 1 traces
	// everything.
	period uint64
	calls  atomic.Uint64

	idSeed uint64
	idCtr  atomic.Uint64

	// The optional file sink. sink is set while one is attached, so Record
	// on a ring-only tracer never touches mu — it would serialise every
	// subscriber write loop that records.
	sink atomic.Bool
	mu   sync.Mutex // guards fw and fc
	fw   *bufio.Writer
	fc   io.Closer
}

// New returns a Tracer for the named hop sampling the given rate (0..1;
// 0 disables origin sampling but anomaly and switch spans still record)
// with a ring retaining ringSize spans (<= 0: DefaultRingSize).
func New(hop string, rate float64, ringSize int) *Tracer {
	t := &Tracer{
		hop:    hop,
		ring:   NewRing(ringSize),
		start:  time.Now(),
		idSeed: uint64(time.Now().UnixNano()),
	}
	switch {
	case rate >= 1:
		t.period = 1
	case rate > 0:
		t.period = uint64(1/rate + 0.5)
	}
	return t
}

// SetOutput attaches a JSONL sink: every recorded span is also appended to
// w (buffered; Close flushes). Pass the file from os.Create; the Tracer
// takes ownership.
func (t *Tracer) SetOutput(w io.WriteCloser) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fw = bufio.NewWriter(w)
	t.fc = w
	t.sink.Store(true)
}

// OpenOutput is SetOutput for a file path.
func (t *Tracer) OpenOutput(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.SetOutput(f)
	return nil
}

// Close flushes and closes the file sink, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fw == nil {
		return nil
	}
	t.sink.Store(false)
	err := t.fw.Flush()
	if cerr := t.fc.Close(); err == nil {
		err = cerr
	}
	t.fw, t.fc = nil, nil
	return err
}

// Hop returns the tracer's hop name ("" for the nil tracer).
func (t *Tracer) Hop() string {
	if t == nil {
		return ""
	}
	return t.hop
}

// Ring exposes the span ring for the debug HTTP plane (nil for the nil
// tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// Sample makes the head-based sampling decision for one origin block.
// Exactly the origin hop calls it — downstream hops trace whatever arrives
// annotated.
func (t *Tracer) Sample() bool {
	if t == nil || t.period == 0 {
		return false
	}
	return t.calls.Add(1)%t.period == 0
}

// NewContext mints a trace context stamped with the local clocks. Call
// only after Sample() said yes.
func (t *Tracer) NewContext() Context {
	if t == nil {
		return Context{}
	}
	now := time.Now()
	return Context{
		Trace:  splitmix64(t.idSeed + t.idCtr.Add(1)),
		WallNs: now.UnixNano(),
		MonoNs: int64(now.Sub(t.start)),
	}
}

// Record appends one span, stamping the hop name. The nil tracer drops it.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	s.Hop = t.hop
	t.ring.Add(s)
	if !t.sink.Load() {
		return
	}
	t.mu.Lock()
	if t.fw != nil {
		// Encoding under the lock keeps file lines whole; the file sink is
		// for smoke tests and post-mortems, not the hot path.
		b, err := json.Marshal(s)
		if err == nil {
			t.fw.Write(b)
			t.fw.WriteByte('\n')
		}
	}
	t.mu.Unlock()
}

// splitmix64 is the SplitMix64 output function: a cheap bijective mixer
// turning a counter into well-spread 64-bit trace ids (0 is remapped, as 0
// means "no trace").
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
