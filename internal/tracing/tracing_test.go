package tracing

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
)

func TestContextAnnoRoundtrip(t *testing.T) {
	c := Context{Trace: 0xDEADBEEFCAFE, WallNs: time.Now().UnixNano(), MonoNs: 12345678}
	anno := c.AppendAnno(nil)
	got := ParseAnno(anno)
	if got != c {
		t.Fatalf("roundtrip: got %+v want %+v", got, c)
	}
	if !got.Valid() {
		t.Fatal("parsed context should be valid")
	}
}

func TestParseAnnoSkipsUnknownKinds(t *testing.T) {
	c := Context{Trace: 7, WallNs: 100, MonoNs: 50}
	// Unknown TLV kind 0x7F before the trace context, and trailing junk
	// kind after it: both must be skipped / ignored.
	anno := append([]byte{0x7F, 3, 1, 2, 3}, c.AppendAnno(nil)...)
	anno = append(anno, 0x42, 1, 9)
	if got := ParseAnno(anno); got != c {
		t.Fatalf("got %+v want %+v", got, c)
	}
}

func TestParseAnnoMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{codec.AnnoKindTrace},          // kind with no length
		{codec.AnnoKindTrace, 200, 1},  // length overruns buffer
		{codec.AnnoKindTrace, 1, 0x80}, // truncated uvarint body
		{0x7F, 5, 1, 2},                // unknown kind overrunning
		bytes.Repeat([]byte{0x80}, 16), // varint garbage
	}
	for _, anno := range cases {
		if got := ParseAnno(anno); got.Valid() {
			t.Fatalf("ParseAnno(%x) = %+v, want invalid", anno, got)
		}
	}
}

func TestTracerSamplingPeriod(t *testing.T) {
	tr := New("pub", 0.25, 64)
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("rate 0.25 over 400 calls: got %d samples, want 100", hits)
	}
	if tr := New("pub", 0, 64); tr.Sample() {
		t.Fatal("rate 0 must never sample")
	}
	always := New("pub", 1, 64)
	for i := 0; i < 10; i++ {
		if !always.Sample() {
			t.Fatal("rate 1 must always sample")
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	tr.Record(Span{Stage: StageStamp})
	if tr.Ring() != nil || tr.Hop() != "" || tr.NewContext().Valid() {
		t.Fatal("nil tracer accessors must be zero")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRingRecentAndJSONL(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		r.Add(Span{Trace: uint64(i + 1), Stage: StageEncode})
	}
	recent := r.Recent(0)
	if len(recent) != 64 {
		t.Fatalf("Recent: got %d spans, want 64", len(recent))
	}
	if recent[0].Trace != 37 || recent[63].Trace != 100 {
		t.Fatalf("Recent window wrong: first=%d last=%d", recent[0].Trace, recent[63].Trace)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 10 {
		t.Fatalf("WriteJSONL lines: got %d want 10", n)
	}
	spans, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 10 || spans[9].Trace != 100 {
		t.Fatalf("ReadJSONL: %d spans, last trace %d", len(spans), spans[len(spans)-1].Trace)
	}
}

// TestRingDumpRace drives concurrent Add against WriteJSONL snapshots —
// under -race this proves the lock-free ring's publication discipline, and
// functionally that a dump taken mid-write only ever contains whole spans.
func TestRingDumpRace(t *testing.T) {
	r := NewRing(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Add(Span{Trace: uint64(w*1_000_000 + i + 1), Stage: StageWrite, Dur: 1})
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf, 0); err != nil {
			t.Fatal(err)
		}
		spans, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("dump %d produced malformed JSONL: %v", i, err)
		}
		for _, s := range spans {
			if s.Trace == 0 || s.Dur != 1 {
				t.Fatalf("torn span surfaced: %+v", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestTracerFileSink(t *testing.T) {
	tr := New("recv", 1, 16)
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.OpenOutput(path); err != nil {
		t.Fatal(err)
	}
	tr.Record(Span{Trace: 9, Stage: StageDecode, Dur: 42})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ReadJSONL(bytes.NewReader(b))
	if err != nil || len(spans) != 1 {
		t.Fatalf("file sink: %v, %d spans", err, len(spans))
	}
	if spans[0].Hop != "recv" || spans[0].Trace != 9 {
		t.Fatalf("bad span in file: %+v", spans[0])
	}
}

// TestReadJSONLTornTail pins the post-mortem contract: a hop killed
// mid-write leaves a truncated final line in its -trace-out file, and
// ReadJSONL must return every complete span instead of aborting. Damage
// anywhere but the tail is real corruption and still errors.
func TestReadJSONLTornTail(t *testing.T) {
	var buf bytes.Buffer
	r := NewRing(16)
	for i := 1; i <= 3; i++ {
		r.Add(Span{Trace: uint64(i), Hop: "h", Stage: StageWrite})
	}
	if err := r.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()

	// Tear the last line mid-record, as a dead buffered writer would.
	torn := whole[:len(whole)-20]
	spans, err := ReadJSONL(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	if len(spans) != 2 || spans[1].Trace != 2 {
		t.Fatalf("want the 2 complete spans, got %+v", spans)
	}

	// The same damage mid-file is corruption, not truncation.
	lines := strings.SplitAfter(whole, "\n")
	corrupt := lines[0][:len(lines[0])-20] + "\n" + lines[1] + lines[2]
	if _, err := ReadJSONL(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file damage must error")
	}
}

// TestDefaultRingRetains pins the one default capacity: a tracer built with
// no ring size (what all three daemons do) keeps at least DefaultRingSize
// spans, not the 16 an earlier NewRing rounded 0 up to.
func TestDefaultRingRetains(t *testing.T) {
	r := New("hop", 0, 0).Ring()
	for i := 0; i < 2*DefaultRingSize; i++ {
		r.Add(Span{Seq: uint64(i + 1)})
	}
	got := r.Recent(0)
	if len(got) < 1024 || len(got) != DefaultRingSize {
		t.Fatalf("default ring retained %d spans, want %d (>= 1024)", len(got), DefaultRingSize)
	}
	if got[len(got)-1].Seq != 2*DefaultRingSize || r.Len() != 2*DefaultRingSize {
		t.Fatalf("newest span seq %d, %d ever added", got[len(got)-1].Seq, r.Len())
	}
}

// closeCounter is a file sink that counts what reaches it.
type closeCounter struct {
	mu     sync.Mutex
	lines  int
	closed int
}

func (c *closeCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.lines += bytes.Count(p, []byte{'\n'})
	c.mu.Unlock()
	return len(p), nil
}

func (c *closeCounter) Close() error {
	c.mu.Lock()
	c.closed++
	c.mu.Unlock()
	return nil
}

// TestRecordRacesSink records from several goroutines while sinks are
// attached and closed underneath them. Record takes the sink lock only
// while a sink is set; under -race this proves the unlocked path and the
// hand-over are sound, and functionally that no span is lost from the ring
// and every sink that was opened is closed exactly once.
func TestRecordRacesSink(t *testing.T) {
	const writers, perWriter, sinks = 8, 2000, 20
	tr := New("hop", 1, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Span{Trace: 1, Stage: StageWrite, Dur: 1})
			}
		}()
	}
	all := make([]*closeCounter, sinks)
	for i := range all {
		all[i] = new(closeCounter)
		tr.SetOutput(all[i])
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := tr.Ring().Len(); got != writers*perWriter {
		t.Fatalf("ring saw %d spans, want %d", got, writers*perWriter)
	}
	written := 0
	for i, c := range all {
		if c.closed != 1 {
			t.Fatalf("sink %d closed %d times", i, c.closed)
		}
		written += c.lines
	}
	if written > writers*perWriter {
		t.Fatalf("sinks got %d lines for %d spans", written, writers*perWriter)
	}
	// With no sink attached, Record must not have left one behind.
	tr.Record(Span{Trace: 2})
	if tr.sink.Load() {
		t.Fatal("sink flag still set after Close")
	}
}

// BenchmarkTracerRecord is the cost of one span on a ring-only tracer, from
// every CPU at once: the subscriber write loops of one broker share a Tracer,
// so a lock here would serialise them.
func BenchmarkTracerRecord(b *testing.B) {
	tr := New("bench", 1, 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(Span{Trace: 1, Seq: 2, Stage: StageWrite, Dur: 3})
		}
	})
}

// TestDecideSpanGolden pins the one JSONL schema: the line a decide span is
// written as, which is cmd/cctrace's input and /debug/spans' output. The
// selector-input fields are always present (probe_age 0 says "measured for
// this block"); the outcome fields drop out when empty.
func TestDecideSpanGolden(t *testing.T) {
	const golden = `{"trace":7,"seq":3,"hop":"ccsend","stream":"send","stage":"decide","start_ns":1700000000000000000,"dur_ns":0,` +
		`"method":"lempel-ziv","placement":"publisher","anomaly":true,` +
		`"decision":{"block_len":131072,"goodput_bps":125000,"probe_ratio":0.4,"probe_age":0,"reduce_speed_bps":40000000,` +
		`"entropy_bits":4.5,"repetition":0.25,"pred_send_ns":1048576000,"pred_reduce_ns":1966080,` +
		`"reason":"line slow (send/reduce 533.33), probe ratio 0.40: dictionary coding","ratio":0.38,"workers":1}}` + "\n"
	span := Span{
		Trace: 7, Seq: 3, Hop: "ccsend", Stream: "send", Stage: StageDecide, Start: 1700000000000000000,
		Method: "lempel-ziv", Placement: "publisher", Anomaly: true,
		Decision: &Decision{
			BlockLen: 128 << 10, GoodputBps: 125000, ProbeRatio: 0.4, ReduceSpeed: 40e6,
			Entropy: 4.5, Repetition: 0.25, PredSendNs: 1048576000, PredReduceNs: 1966080,
			Reason: "line slow (send/reduce 533.33), probe ratio 0.40: dictionary coding", Ratio: 0.38, Workers: 1,
		},
	}
	r := NewRing(4)
	r.Add(span)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Fatalf("decide span line changed:\n got %s want %s", buf.String(), golden)
	}
	back, err := ReadJSONL(strings.NewReader(golden))
	if err != nil || len(back) != 1 || back[0].Decision == nil || *back[0].Decision != *span.Decision {
		t.Fatalf("golden line does not read back: %v %+v", err, back)
	}
}
