package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness's wrappers
// at the public seams. Start and End are nanoseconds on the run clock.
// Parent is the ID of the span that caused this one (0 = none known); Seq
// is the block the call worked on (0 = not known at that seam). Lane tells
// which side of the link the call ran on.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Seq    uint64
	Lane   string
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names: "<module>.<call>". The module prefix is the layer the time
// is charged to in layers.json.
const (
	spanTxWrite    = "core.tx_write"     // the harness's call into Writer.Write
	spanRxRead     = "core.rx_read"      // the harness's call into Reader.Read
	spanCompress   = "codec.compress"    // Codec.Compress, via the registry
	spanDecompress = "codec.decompress"  // Codec.Decompress, via the registry
	spanProbe      = "sampling.probe"    // the probe that fed a Select call
	spanSelect     = "selector.select"   // Policy.Select
	spanConnWrite  = "netsim.conn_write" // Write on a conn handed to core or the broker
	spanConnRead   = "netsim.conn_read"  // Read on a conn handed to core or the broker
	spanHandshake  = "broker.handshake"  // Handshake{Publish,Subscribe,Resume}
	spanPrepare    = "loadgen.prepare"   // the generator copying and stamping a block
)

// Lanes: which side of a link a call ran on.
const (
	laneSender   = "sender"   // publisher side of the first hop
	laneBroker   = "broker"   // inside the broker
	laneReceiver = "receiver" // subscriber side of the last hop
)

const (
	maxSpans       = 4 << 20 // recorder cap; later spans are counted, not kept
	maxSpansOnDisk = 200000  // spans.jsonl cap; layers.json still covers every kept span
	spanChunk      = 1 << 16 // spans per allocation chunk
	// Derived span IDs: tx_write spans are keyed by block seq in their own
	// ID space, below the counter that numbers every other span.
	idSeqBits     = 40
	idKindTxWrite = uint64(1) << idSeqBits
)

// txWriteID is the ID of the tx_write span for block seq, so spans on
// other goroutines (compress, conn write) can name their parent without a
// lookup.
func txWriteID(seq uint64) uint64 { return idKindTxWrite | seq }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op.
type recorder struct {
	clk realClock

	mu      sync.Mutex
	chunks  [][]span
	n       int
	dropped int
	nextID  uint64
}

func newRecorder(clk realClock) *recorder {
	return &recorder{clk: clk, nextID: uint64(2) << idSeqBits}
}

// now is the run clock for span edges (0 on the untraced run, where no
// span is kept and the clock read would be wasted).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(r.clk.Now())
}

// add stores s, assigning an ID when it has none.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.nextID++
		s.ID = r.nextID
	}
	if r.n >= maxSpans {
		r.dropped++
		return
	}
	if len(r.chunks) == 0 || len(r.chunks[len(r.chunks)-1]) == spanChunk {
		r.chunks = append(r.chunks, make([]span, 0, spanChunk))
	}
	last := len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], s)
	r.n++
}

// reserve hands out an ID for a span whose children are recorded before
// it ends.
func (r *recorder) reserve() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// interval is a half-open stretch of run-clock time.
type interval struct{ start, end int64 }

// mergeIntervals returns the union of ivs as sorted, disjoint intervals. It
// sorts ivs in place.
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var out []interval
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func totalLen(merged []interval) int64 {
	var t int64
	for _, iv := range merged {
		t += iv.end - iv.start
	}
	return t
}

// intersectLen is the length of the intersection of two merged lists.
func intersectLen(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].start, b[j].start), min(a[i].end, b[j].end)
		if hi > lo {
			t += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return t
}

// childCover returns, per parent span ID, how much of the parent's interval
// its child spans cover. Children may overlap each other and may stick out
// of the parent (they run on other goroutines); only the part inside the
// parent counts, and overlaps count once.
func childCover(spans []span) map[uint64]int64 {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	cover := make(map[uint64]int64, len(children))
	for _, s := range spans {
		if ivs := children[s.ID]; len(ivs) > 0 {
			cover[s.ID] = intersectLen(mergeIntervals(ivs), []interval{{s.Start, s.End}})
		}
	}
	return cover
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, cover map[uint64]int64) int64 { return s.dur() - cover[s.ID] }

// layerRow is one line of layers.json: a span name's totals over the
// measured window.
type layerRow struct {
	Name      string  `json:"name"`
	Lane      string  `json:"lane"`
	Calls     int     `json:"calls"`
	TotalMs   float64 `json:"total_ms"`
	SelfMs    float64 `json:"self_ms"`
	SelfP50Us float64 `json:"self_p50_us"`
	BusyShare float64 `json:"busy_share"` // total ÷ measured wall time
}

// layerTable aggregates spans that start inside the window by name and
// lane.
func layerTable(spans []span, win window) []layerRow {
	cover := childCover(spans)
	type key struct{ name, lane string }
	type acc struct {
		total, self int64
		selfs       []float64
	}
	accs := make(map[key]*acc)
	for _, s := range spans {
		if !win.has(s.Start) {
			continue
		}
		k := key{s.Name, s.Lane}
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
		}
		self := selfTime(s, cover)
		a.total += s.dur()
		a.self += self
		a.selfs = append(a.selfs, float64(self)/1e3)
	}
	wall := win.seconds() * 1e9
	rows := make([]layerRow, 0, len(accs))
	for k, a := range accs {
		rows = append(rows, layerRow{
			Name: k.name, Lane: k.lane, Calls: len(a.selfs),
			TotalMs: float64(a.total) / 1e6, SelfMs: float64(a.self) / 1e6,
			SelfP50Us: median(a.selfs), BusyShare: float64(a.total) / wall,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].Lane < rows[j].Lane
	})
	return rows
}

// writeTrace writes spans.jsonl (one span per line, the first
// maxSpansOnDisk that start inside the window) and layers.json into dir.
func writeTrace(dir string, spans []span, dropped int, win window) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	// The window's spans first: warm-up alone would fill the cap.
	onDisk := make([]span, 0, min(len(spans), maxSpansOnDisk))
	for _, s := range spans {
		if len(onDisk) < maxSpansOnDisk && win.has(s.Start) {
			onDisk = append(onDisk, s)
		}
	}
	var line []byte
	for _, s := range onDisk {
		line = line[:0]
		line = append(line, `{"id":`...)
		line = strconv.AppendUint(line, s.ID, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.Parent, 10)
		line = append(line, `,"name":"`...)
		line = append(line, s.Name...)
		line = append(line, `","lane":"`...)
		line = append(line, s.Lane...)
		line = append(line, `","seq":`...)
		line = strconv.AppendUint(line, s.Seq, 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := struct {
		WindowMs     float64    `json:"window_ms"`
		Spans        int        `json:"spans"`
		SpansOnDisk  int        `json:"spans_on_disk"`
		SpansDropped int        `json:"spans_dropped"`
		Layers       []layerRow `json:"layers"`
	}{
		WindowMs: win.seconds() * 1e3, Spans: len(spans), SpansOnDisk: len(onDisk),
		SpansDropped: dropped, Layers: layerTable(spans, win),
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
