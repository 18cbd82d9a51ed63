package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccx/internal/metrics"
	"ccx/internal/tracing"
)

// The TestDecisionLog* tests run the ring through the names benchmark/ still
// builds against, so they prove the residue is the one tracing.Ring; they
// move to internal/tracing with the PR that deletes the names.

func TestDecisionLogRing(t *testing.T) {
	l := NewDecisionLog(4)
	for i := 0; i < 10; i++ {
		l.Add(tracing.Span{Seq: uint64(i), Method: "none"})
	}
	recs := l.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("recent = %d spans, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(6+i) {
			t.Errorf("recent[%d].Seq = %d, want %d", i, r.Seq, 6+i)
		}
	}
	if got := l.Recent(2); len(got) != 2 || got[1].Seq != 9 {
		t.Fatalf("Recent(2) = %+v, want the 2 newest", got)
	}
	if l.Len() != 10 {
		t.Fatalf("len = %d, want 10 ever added", l.Len())
	}
}

func TestDecisionLogRoundsCapacity(t *testing.T) {
	retained := func(l *DecisionLog) int {
		for i := 0; i < 4*DefaultLogSize; i++ {
			l.Add(tracing.Span{})
		}
		return len(l.Recent(0))
	}
	if got := retained(NewDecisionLog(5)); got != 8 {
		t.Fatalf("capacity = %d, want next power of two 8", got)
	}
	if got := retained(NewDecisionLog(0)); got != DefaultLogSize {
		t.Fatalf("capacity = %d, want the one default %d", got, DefaultLogSize)
	}
}

func TestNilDecisionLogIsInert(t *testing.T) {
	var l *DecisionLog
	l.Add(tracing.Span{}) // must not panic
	if l.Recent(10) != nil || l.Len() != 0 {
		t.Fatal("nil ring must be empty")
	}
	if err := l.WriteJSONL(io.Discard, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionLogConcurrent(t *testing.T) {
	l := NewDecisionLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(tracing.Span{Stream: fmt.Sprint(g), Seq: uint64(i + 1)})
				_ = l.Recent(16)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 4000 {
		t.Fatalf("len = %d, want 4000", l.Len())
	}
	last := make(map[string]uint64)
	for _, s := range l.Recent(0) {
		if s.Seq <= last[s.Stream] {
			t.Fatalf("writer %s out of order: %d after %d", s.Stream, s.Seq, last[s.Stream])
		}
		last[s.Stream] = s.Seq
	}
}

// TestWriteJSONL: what /debug/spans serves is the schema cmd/cctrace reads,
// decision attributes included — probe_age is always present in a decision:
// 0 says "measured for this block".
func TestWriteJSONL(t *testing.T) {
	l := NewDecisionLog(8)
	l.Add(tracing.Span{Stream: "send", Seq: 1, Stage: tracing.StageDecide, Method: "none",
		Decision: &tracing.Decision{GoodputBps: 1e6, Reason: "no goodput measurement yet: send raw"}})
	l.Add(tracing.Span{Stream: "send", Seq: 2, Stage: tracing.StageDecide, Method: "lempel-ziv",
		Decision: &tracing.Decision{Ratio: 0.4, ProbeAge: 17}})
	l.Add(tracing.Span{Stream: "send", Seq: 2, Stage: tracing.StageEncode, Dur: 42})
	w := httptest.NewRecorder()
	Handler(nil, l).ServeHTTP(w, httptest.NewRequest("GET", "/debug/spans", nil))
	body := w.Body.String()
	for _, want := range []string{`"probe_age":0`, `"probe_age":17`} {
		if !strings.Contains(body, want) {
			t.Fatalf("dump lacks %s:\n%s", want, body)
		}
	}
	spans, err := tracing.ReadJSONL(strings.NewReader(body))
	if err != nil || len(spans) != 3 {
		t.Fatalf("dump does not read back: %v, %d spans\n%s", err, len(spans), body)
	}
	if d := spans[0].Decision; d == nil || d.GoodputBps != 1e6 || !strings.Contains(d.Reason, "no goodput") {
		t.Fatalf("first decide span = %+v", spans[0])
	}
	if spans[2].Decision != nil || spans[2].Dur != 42 {
		t.Fatalf("timing span = %+v", spans[2])
	}
}

func TestDebugServer(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("broker.events_in").Add(7)
	reg.Histogram("ccx.encode_seconds", metrics.LatencyBuckets).Observe(0.002)
	ring := tracing.NewRing(16)
	ring.Add(tracing.Span{Hop: "ccbroker", Stream: "sub.1", Stage: tracing.StageMigrate, Method: "huffman",
		Decision: &tracing.Decision{GoodputBps: 5e5, Reason: "line slow"}})

	srv, err := Serve("127.0.0.1:0", reg, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, ct := get("/metrics"); !strings.Contains(body, "broker_events_in 7") ||
		!strings.Contains(body, "ccx_encode_seconds_bucket") ||
		!strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics = %q (content-type %q)", body, ct)
	}
	body, _ := get("/debug/vars")
	var vars map[string]float64
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars["broker.events_in"] != 7 || vars["ccx.encode_seconds.count"] != 1 {
		t.Errorf("/debug/vars = %v", vars)
	}
	body, _ = get("/debug/spans?n=1")
	spans, err := tracing.ReadJSONL(strings.NewReader(body))
	if err != nil || len(spans) != 1 || spans[0].Method != "huffman" ||
		spans[0].Decision == nil || spans[0].Decision.GoodputBps != 5e5 {
		t.Errorf("/debug/spans = %q (%v)", body, err)
	}
	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
	if body, _ = get("/"); !strings.Contains(body, "/debug/spans") || strings.Contains(body, "/debug/decisions") {
		t.Errorf("index = %q", body)
	}
	// One plane: the decision endpoint is gone, not empty.
	resp, err := http.Get(base + "/debug/decisions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/decisions: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugServerNilPieces(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/spans"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with nil registry/ring: status %d", path, resp.StatusCode)
		}
	}
}

// TestDebugDumpCap pins the hard response ceiling: no ?n= value — absent,
// zero, negative, or enormous — may make /debug/spans emit more than
// MaxDumpRecords spans, however large the backing ring.
func TestDebugDumpCap(t *testing.T) {
	for n, want := range map[int]int{0: MaxDumpRecords, -3: MaxDumpRecords,
		MaxDumpRecords + 1: MaxDumpRecords, 1 << 30: MaxDumpRecords,
		7: 7, MaxDumpRecords: MaxDumpRecords} {
		if got := clampDump(n); got != want {
			t.Errorf("clampDump(%d) = %d, want %d", n, got, want)
		}
	}

	ring := tracing.NewRing(2 * MaxDumpRecords)
	total := MaxDumpRecords + 100
	for i := 0; i < total; i++ {
		ring.Add(tracing.Span{Stream: "cap", Seq: uint64(i + 1)})
	}
	h := Handler(nil, ring)
	for path, want := range map[string]int{
		"/debug/spans":          MaxDumpRecords,
		"/debug/spans?n=-1":     MaxDumpRecords,
		"/debug/spans?n=999999": MaxDumpRecords,
		"/debug/spans?n=12":     12,
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		spans, err := tracing.ReadJSONL(w.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if len(spans) != want {
			t.Errorf("GET %s returned %d spans, want %d", path, len(spans), want)
		}
		if last := spans[len(spans)-1].Seq; last != uint64(total) {
			t.Errorf("GET %s: cap dropped the newest span: last seq = %d", path, last)
		}
	}
}

// TestDecisionLogDumpRacesAdd hammers /debug/spans while writers wrap the
// ring several times over. Run under -race this pins the lock-free
// contract: dumps may miss the newest spans but every line they do emit
// is a whole span, each writer's in order — no torn reads, no panics.
func TestDecisionLogDumpRacesAdd(t *testing.T) {
	log := NewDecisionLog(64)
	h := Handler(nil, log)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
					log.Add(tracing.Span{Stream: fmt.Sprint(w), Seq: uint64(i), Method: "none"})
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/spans", nil))
		spans, err := tracing.ReadJSONL(w.Body)
		if err != nil {
			t.Fatalf("dump %d: torn span: %v", i, err)
		}
		last := make(map[string]uint64)
		for _, s := range spans {
			if s.Method != "none" || s.Seq <= last[s.Stream] {
				t.Fatalf("dump %d: writer %s: %+v after seq %d", i, s.Stream, s, last[s.Stream])
			}
			last[s.Stream] = s.Seq
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlagsStart pins what the daemons' shared flags build: nothing without
// a flag, and with -debug alone a rate-0 tracer whose always-on spans are
// served at /debug/spans (it used to take a -trace-* flag to get one).
func TestFlagsStart(t *testing.T) {
	start := func(args ...string) (*Plane, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := AddFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Start("cctest", nil, 0)
	}
	p, err := start()
	if err != nil || p.Metrics != nil || p.Tracer != nil {
		t.Fatalf("no flags built %+v (%v)", p, err)
	}
	p.Close()

	out := filepath.Join(t.TempDir(), "spans.jsonl")
	if p, err = start("-trace-out", out); err != nil || p.Tracer == nil || p.Metrics != nil {
		t.Fatalf("-trace-out built %+v (%v)", p, err)
	}
	p.Tracer.Record(tracing.Span{Stage: tracing.StageGap, Anomaly: true})
	p.Close()
	if b, err := os.ReadFile(out); err != nil || !bytes.Contains(b, []byte(`"stage":"gap"`)) {
		t.Fatalf("span file = %q (%v)", b, err)
	}
	if _, err = start("-trace-out", filepath.Join(out, "no", "such")); err == nil {
		t.Fatal("unwritable -trace-out must fail")
	}

	if p, err = start("-debug", "127.0.0.1:0"); err != nil || p.Tracer == nil || p.Metrics == nil {
		t.Fatalf("-debug built %+v (%v)", p, err)
	}
	defer p.Close()
	if p.Tracer.Sample() {
		t.Fatal("-debug alone must not head-sample")
	}
	p.Tracer.Record(tracing.Span{Stage: tracing.StageResync, Anomaly: true})
	if n := len(p.Tracer.Ring().Recent(0)); n != 1 {
		t.Fatalf("ring holds %d spans", n)
	}
}
