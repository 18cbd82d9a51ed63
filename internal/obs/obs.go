// Package obs is the observability plane for ccx processes: a per-block
// decision trace that records *why* the selector chose each compression
// method, and a debug HTTP server that exposes the trace, the metrics
// registry (Prometheus text exposition and JSON), and net/http/pprof.
//
// The paper's contribution is a feedback loop — measured goodput and
// reducing speed in, a method choice out, once per 128 KB block — and this
// package makes the loop auditable end to end: every Record carries the
// inputs the selector saw (goodput, probe ratio, reducing speed, sampled
// entropy), the prediction it made, the method it chose, and the realized
// outcome (wire bytes, ratio, encode and send latency). internal/core and
// internal/broker emit records into a DecisionLog ring buffer; operators
// read them back as JSON over GET /debug/decisions or as JSONL dumps.
//
// Everything is opt-in and cheap: a nil *DecisionLog means no tracing at
// all (callers guard with a nil check), and Add is an atomic slot claim
// plus an atomic pointer store — no locks on the block hot path.
package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// Record is one per-block decision-trace entry. Field groups follow the
// loop's phases: identity, selector inputs, prediction, choice, outcome.
type Record struct {
	// Seq is the log-wide sequence number (assigned by DecisionLog.Add).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock stamp of the record.
	Time time.Time `json:"time"`
	// Stream names the adaptation loop that produced the record, e.g.
	// "send" for a point-to-point sender or "sub.3" for a broker
	// subscriber. Empty for single-loop processes.
	Stream string `json:"stream,omitempty"`
	// Block is the block's ordinal within its stream.
	Block int `json:"block"`
	// BlockLen is the original block size in bytes.
	BlockLen int `json:"block_len"`

	// Selector inputs (§2.5): end-to-end goodput in bytes/sec, the probe's
	// compressed fraction, its reducing speed in bytes/sec, and the sampled
	// data characteristics. ProbeAge says how many blocks ago the probe
	// fields were measured (0 = on this block): on a line that outruns the
	// codec the engine carries a measurement over instead of repeating it.
	GoodputBps   float64 `json:"goodput_bps"`
	ProbeRatio   float64 `json:"probe_ratio"`
	ReduceSpeed  float64 `json:"reduce_speed_bps"`
	ProbeAge     int     `json:"probe_age"`
	Entropy      float64 `json:"entropy_bits"`
	Repetition   float64 `json:"repetition"`
	PredSendNs   int64   `json:"pred_send_ns"`
	PredReduceNs int64   `json:"pred_reduce_ns"`

	// Choice and reasoning. Placement says where the block's compression
	// ran ("publisher", "broker", "receiver") — empty on records from loops
	// that predate the placement dimension (receive side, encode plane).
	Method    string `json:"method"`
	Placement string `json:"placement,omitempty"`
	Reason    string `json:"reason,omitempty"`

	// Realized outcome. WireBytes is the full frame size; Ratio is
	// compressed/original payload; EncodeNs and SendNs are the measured
	// latencies. Fallback marks blocks that expanded and were sent raw.
	WireBytes int     `json:"wire_bytes,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	EncodeNs  int64   `json:"encode_ns,omitempty"`
	DecodeNs  int64   `json:"decode_ns,omitempty"`
	SendNs    int64   `json:"send_ns,omitempty"`
	Fallback  bool    `json:"fallback,omitempty"`

	// Receiver-side records: Corrupt marks a frame that failed integrity
	// checks and was skipped via resync; Err carries its error text.
	Corrupt bool   `json:"corrupt,omitempty"`
	Err     string `json:"err,omitempty"`

	// Session/resume records. FrameSeq is the per-channel block sequence
	// number stamped into sequenced frames. Resume marks a resume
	// handshake (broker side: replay decision; receiver side: reconnect
	// outcome). Dup marks a replayed duplicate the delivery tracker
	// suppressed. GapBlocks counts blocks known lost at this point — evicted
	// past the replay window or skipped on the wire — always reported,
	// never silently swallowed.
	FrameSeq  uint64 `json:"frame_seq,omitempty"`
	Resume    bool   `json:"resume,omitempty"`
	Dup       bool   `json:"dup,omitempty"`
	GapBlocks uint64 `json:"gap_blocks,omitempty"`

	// Shared-encode-plane records. Class labels the method-equivalence
	// class ("<channel>/<method>") a frame was encoded for, ClassSubs how
	// many subscribers shared that single encode, and CacheHit marks frames
	// served from the refcounted frame cache instead of a fresh encode
	// (resume replays and reconnect storms).
	Class     string `json:"class,omitempty"`
	ClassSubs int    `json:"class_subs,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`

	// Parallel-pipeline records. Workers is the encode worker-pool size that
	// produced the block (1 = the sequential loop); PipeWaitNs is how long
	// the in-order sequencer stalled waiting for this block's encode —
	// persistently high values mean the pool is too small (or one codec is
	// much slower than its neighbours).
	Workers    int   `json:"workers,omitempty"`
	PipeWaitNs int64 `json:"pipe_wait_ns,omitempty"`

	// Trace joins this decision record with the distributed-trace span ring
	// (/debug/spans): the trace id stamped into the block's frame
	// annotation when the block was head-sampled, 0 otherwise.
	Trace uint64 `json:"trace,omitempty"`
}

// DefaultLogSize is the decision ring's default capacity.
const DefaultLogSize = 1024

// DecisionLog is a fixed-capacity ring buffer of Records. Writers claim a
// slot with one atomic add and publish the record with one atomic pointer
// store; readers snapshot whatever is published. Under heavy concurrency a
// reader may observe a ring missing the very newest records — acceptable
// for a debugging trace, and the price of a lock-free hot path.
//
// A nil *DecisionLog is inert: Add, Recent, and WriteJSONL are no-ops, so
// instrumented code holds an optional log without nil checks.
type DecisionLog struct {
	slots []atomic.Pointer[Record]
	next  atomic.Uint64 // next sequence number to assign
	mask  uint64
}

// NewDecisionLog returns a log holding the most recent size records
// (rounded up to a power of two; size <= 0 means DefaultLogSize).
func NewDecisionLog(size int) *DecisionLog {
	if size <= 0 {
		size = DefaultLogSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &DecisionLog{
		slots: make([]atomic.Pointer[Record], n),
		mask:  uint64(n - 1),
	}
}

// Cap returns the ring capacity.
func (l *DecisionLog) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Len returns how many records are currently retained (<= Cap).
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	n := l.next.Load()
	if n > uint64(len(l.slots)) {
		return len(l.slots)
	}
	return int(n)
}

// Seq returns the number of records ever added.
func (l *DecisionLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.next.Load()
}

// Add appends r, stamping its Seq (and its Time, if unset). The record is
// copied; callers may reuse theirs.
func (l *DecisionLog) Add(r Record) {
	if l == nil {
		return
	}
	seq := l.next.Add(1) - 1
	r.Seq = seq
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	l.slots[seq&l.mask].Store(&r)
}

// Recent returns up to max of the newest records in chronological order
// (oldest first). max <= 0 means the whole ring.
func (l *DecisionLog) Recent(max int) []Record {
	if l == nil {
		return nil
	}
	if max <= 0 || max > len(l.slots) {
		max = len(l.slots)
	}
	end := l.next.Load()
	start := uint64(0)
	if end > uint64(max) {
		start = end - uint64(max)
	}
	out := make([]Record, 0, end-start)
	for seq := start; seq < end; seq++ {
		rec := l.slots[seq&l.mask].Load()
		// A slot can hold an older or newer record than seq when writers
		// race the ring boundary; keep only exact matches so callers see a
		// strictly ordered trace.
		if rec != nil && rec.Seq == seq {
			out = append(out, *rec)
		}
	}
	return out
}

// WriteJSONL dumps up to max recent records as one JSON object per line,
// oldest first. max <= 0 means the whole ring.
func (l *DecisionLog) WriteJSONL(w io.Writer, max int) error {
	enc := json.NewEncoder(w)
	for _, rec := range l.Recent(max) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
