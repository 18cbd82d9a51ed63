// Package tracing is the cross-hop, per-block distributed trace for ccx
// streams. The publisher stamps a compact trace context (trace id + origin
// wall/monotonic timestamps) into a frame annotation for a head-sampled
// subset of blocks; every hop that handles an annotated block appends local
// span records — probe, decide, encode, queue wait, write, decode — to a
// lock-free ring, exported as JSONL over the debug HTTP plane (/debug/spans)
// and optionally to a file. It is the one observability record: a selector
// decision is a decide (or, on the broker, migrate) span whose Decision
// attributes carry the inputs the selector saw and its worded reason, so one
// dump answers both "where did this block's time go?" and "why this
// method?". Anomalies and switches (corrupt frames, resyncs, gaps, resumes,
// a stream's first decision and every change of method or placement) are
// recorded regardless of the sampling decision so the rare events that
// motivate tracing are never lost. cmd/cctrace stitches dumps from N hops
// into per-block waterfalls with critical-path attribution (see stitch.go).
package tracing

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync/atomic"
)

// Span stage names. A span is one timed interval of one block's life on one
// hop; stages are coarse on purpose — they are the rows of the cctrace
// critical-path table.
const (
	// StageStamp marks trace-context creation at the origin hop. Its start
	// time is the trace's epoch; duration is zero.
	StageStamp = "stamp"
	// StageProbe is the sampling probe (paper §2.5): compressing the probe
	// prefix to estimate ratio and reducing speed.
	StageProbe = "probe"
	// StageDecide is the selector's decision for one block, with the
	// Decision attributes. Recorded for head-sampled blocks and, always, for
	// a stream's first block and every block whose method or placement
	// differs from the one before it. Zero duration: the decide time is not
	// measured apart from the probe, so the critical path is unchanged.
	StageDecide = "decide"
	// StageEncode is payload compression plus frame construction.
	StageEncode = "encode"
	// StagePipeWait is time a finished encode waited for the in-order
	// emission sequencer (pipeline head-of-line wait).
	StagePipeWait = "pipe-wait"
	// StageQueue is time a frame waited in a broker subscriber queue
	// between fan-out and dequeue.
	StageQueue = "queue"
	// StageWrite is the blocking socket write of the encoded frame.
	StageWrite = "write"
	// StageDecode is frame decode + payload decompression at a receiving
	// hop (the broker ingesting a publisher frame, or the final receiver).
	StageDecode = "decode"
	// StageResync is corrupt-frame recovery: scanning the stream for the
	// next plausible boundary. Always recorded (anomaly).
	StageResync = "resync"
	// StageGap is a delivery-tracker gap observation: seq jumped forward.
	// Always recorded (anomaly).
	StageGap = "gap"
	// StageDup is a delivery-tracker duplicate suppression. Always
	// recorded (anomaly).
	StageDup = "dup"
	// StageMigrate is a subscriber's class migration on the broker (the
	// adaptation loop changed method or placement): the broker's decide
	// span for a switch, Decision attributes included. Always recorded.
	StageMigrate = "migrate"
	// StageResume is a RESUME handshake replaying a subscriber's tail.
	// Always recorded (anomaly).
	StageResume = "resume"
	// StagePressure is an overload-governor level transition (ok/elevated/
	// critical). Always recorded; marked anomaly when entering pressure.
	StagePressure = "pressure"
)

// Span is one record in a hop's span ring: a stage of one block's life,
// timed on the local clock. JSON field names are the /debug/spans and
// spans.jsonl wire format consumed by cmd/cctrace.
type Span struct {
	// Trace links spans across hops; 0 marks an always-on anomaly span for
	// a block whose trace context was absent or unsampled.
	Trace uint64 `json:"trace"`
	// Seq is the block sequence at this hop (publisher block index + 1, or
	// the broker channel sequence); 0 when unknown.
	Seq uint64 `json:"seq,omitempty"`
	// Hop names the recording process ("pub", "broker", "recv", or as
	// configured); Stream narrows it to a flow within the process (e.g. a
	// broker subscriber id).
	Hop    string `json:"hop"`
	Stream string `json:"stream,omitempty"`
	Stage  string `json:"stage"`
	// Start is local wall-clock Unix nanoseconds; Dur the span length.
	// Clocks are NOT assumed synchronized across hops — cctrace
	// skew-corrects at stitch time.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// OriginWall echoes the trace context's origin wall clock on remote
	// hops, so a two-file stitch still has the trace epoch when the origin
	// hop's dump is missing.
	OriginWall int64  `json:"origin_wall_ns,omitempty"`
	Method     string `json:"method,omitempty"`
	Placement  string `json:"placement,omitempty"`
	// Class is the encode-plane class key and CacheHit whether the frame
	// came from the (seq, method) frame cache rather than a fresh encode.
	Class    string `json:"class,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Bytes is the wire size relevant to the stage (frame bytes for
	// encode/write, compressed payload for decode).
	Bytes int    `json:"bytes,omitempty"`
	Err   string `json:"err,omitempty"`
	// Anomaly marks the always-on class: spans recorded whatever the head
	// sampling decision was (anomalies, and decisions that changed method or
	// placement).
	Anomaly bool `json:"anomaly,omitempty"`
	// Decision is set on decide and migrate spans (and, for the class
	// reason and fan-out width, on the encode plane's encode spans).
	Decision *Decision `json:"decision,omitempty"`
}

// Decision is what a decide span knows that no timing span does: the
// selector's inputs (§2.5: goodput, the probe's ratio and reducing speed,
// the sampled data characteristics), its prediction, its worded reason, and
// the realized outcome. ProbeAge says how many blocks ago the probe fields
// were measured (0 = on this block): on a line that outruns the codec the
// engine carries a measurement over instead of repeating it.
type Decision struct {
	BlockLen     int     `json:"block_len"`
	GoodputBps   float64 `json:"goodput_bps"`
	ProbeRatio   float64 `json:"probe_ratio"`
	ProbeAge     int     `json:"probe_age"`
	ReduceSpeed  float64 `json:"reduce_speed_bps"`
	Entropy      float64 `json:"entropy_bits"`
	Repetition   float64 `json:"repetition"`
	PredSendNs   int64   `json:"pred_send_ns"`
	PredReduceNs int64   `json:"pred_reduce_ns"`
	Reason       string  `json:"reason,omitempty"`
	// Ratio is the realized compressed/original payload ratio; Fallback
	// marks a block that expanded and was sent raw.
	Ratio    float64 `json:"ratio,omitempty"`
	Fallback bool    `json:"fallback,omitempty"`
	// Workers is the encode pool that produced the block (1 = the
	// sequential loop); ClassSubs how many subscribers shared one encode.
	Workers   int `json:"workers,omitempty"`
	ClassSubs int `json:"class_subs,omitempty"`
}

// DefaultRingSize is the span ring's capacity when none is asked for.
const DefaultRingSize = 1024

// Ring is a bounded, lock-free span buffer: writers atomically claim a slot
// index and publish a pointer; readers snapshot without blocking writers.
// Overwrites under wrap or torn reads lose individual spans, never corrupt
// them. The nil ring is inert.
type Ring struct {
	slots []atomic.Pointer[ringSlot]
	next  atomic.Uint64
	mask  uint64
}

type ringSlot struct {
	seq  uint64
	span Span
}

// NewRing returns a ring holding the most recent size spans (rounded up to
// a power of two; size <= 0 means DefaultRingSize).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[ringSlot], n), mask: uint64(n - 1)}
}

// Add appends one span. Safe for any number of concurrent writers; the
// nil ring drops it.
func (r *Ring) Add(s Span) {
	if r == nil {
		return
	}
	seq := r.next.Add(1) - 1
	r.slots[seq&r.mask].Store(&ringSlot{seq: seq, span: s})
}

// Len reports how many spans have ever been added (not how many are
// retained).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Recent returns up to max of the newest spans, oldest first. Slots being
// overwritten mid-snapshot are skipped: only records whose claimed sequence
// matches the expected one survive.
func (r *Ring) Recent(max int) []Span {
	if r == nil {
		return nil
	}
	if max <= 0 || max > len(r.slots) {
		max = len(r.slots)
	}
	end := r.next.Load()
	start := uint64(0)
	if end > uint64(max) {
		start = end - uint64(max)
	}
	out := make([]Span, 0, end-start)
	for seq := start; seq < end; seq++ {
		if slot := r.slots[seq&r.mask].Load(); slot != nil && slot.seq == seq {
			out = append(out, slot.span)
		}
	}
	return out
}

// WriteJSONL streams up to max recent spans as JSON Lines, oldest first —
// the /debug/spans format cmd/cctrace consumes.
func (r *Ring) WriteJSONL(w io.Writer, max int) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Recent(max) {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL span dump (the inverse of WriteJSONL). Blank
// lines are skipped. A malformed *final* line is tolerated — a hop killed
// mid-write (crash, SIGKILL, fatal SIGPIPE) always tears the buffered tail
// of its -trace-out file, and a post-mortem must still stitch the spans
// that made it to disk. A malformed line anywhere else is real corruption
// and aborts with its error.
func ReadJSONL(rd io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var out []Span
	var pendErr error // malformed line, fatal unless it proves to be last
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if pendErr != nil {
			return out, pendErr
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			pendErr = err
			continue
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}
