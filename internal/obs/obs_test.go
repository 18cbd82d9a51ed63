package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ccx/internal/metrics"
)

func TestDecisionLogRing(t *testing.T) {
	l := NewDecisionLog(4)
	if l.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", l.Cap())
	}
	for i := 0; i < 10; i++ {
		l.Add(Record{Block: i, Method: "none"})
	}
	recs := l.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("recent = %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Block != 6+i {
			t.Errorf("recent[%d].Block = %d, want %d", i, r.Block, 6+i)
		}
		if r.Seq != uint64(6+i) {
			t.Errorf("recent[%d].Seq = %d, want %d", i, r.Seq, 6+i)
		}
		if r.Time.IsZero() {
			t.Errorf("recent[%d] missing timestamp", i)
		}
	}
	if got := l.Recent(2); len(got) != 2 || got[1].Block != 9 {
		t.Fatalf("Recent(2) = %+v, want the 2 newest", got)
	}
	if l.Len() != 4 || l.Seq() != 10 {
		t.Fatalf("len=%d seq=%d, want 4 and 10", l.Len(), l.Seq())
	}
}

func TestDecisionLogRoundsCapacity(t *testing.T) {
	if got := NewDecisionLog(5).Cap(); got != 8 {
		t.Fatalf("cap = %d, want next power of two 8", got)
	}
	if got := NewDecisionLog(0).Cap(); got != DefaultLogSize {
		t.Fatalf("cap = %d, want default %d", got, DefaultLogSize)
	}
}

func TestNilDecisionLogIsInert(t *testing.T) {
	var l *DecisionLog
	l.Add(Record{}) // must not panic
	if l.Recent(10) != nil || l.Len() != 0 || l.Cap() != 0 || l.Seq() != 0 {
		t.Fatal("nil log must be empty")
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
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(Record{Block: i})
				_ = l.Recent(16)
			}
		}()
	}
	wg.Wait()
	if l.Seq() != 4000 {
		t.Fatalf("seq = %d, want 4000", l.Seq())
	}
	recs := l.Recent(0)
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("records out of order: %d after %d", recs[i].Seq, recs[i-1].Seq)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	l := NewDecisionLog(8)
	l.Add(Record{Stream: "send", Block: 0, Method: "none", GoodputBps: 1e6})
	l.Add(Record{Stream: "send", Block: 1, Method: "lempel-ziv", Ratio: 0.4, ProbeAge: 17})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	// probe_age is always present: 0 says "measured for this block".
	for _, want := range []string{`"probe_age":0`, `"probe_age":17`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("dump lacks %s:\n%s", want, buf.String())
		}
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
		if rec.Block != lines {
			t.Fatalf("line %d block = %d", lines, rec.Block)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestDebugServer(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("broker.events_in").Add(7)
	reg.Histogram("ccx.encode_seconds", metrics.LatencyBuckets).Observe(0.002)
	log := NewDecisionLog(16)
	log.Add(Record{Stream: "sub.1", Block: 0, Method: "huffman", GoodputBps: 5e5})

	srv, err := Serve("127.0.0.1:0", reg, log, nil)
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
	body, _ = get("/debug/decisions")
	var recs []Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/debug/decisions not JSON: %v", err)
	}
	if len(recs) != 1 || recs[0].Method != "huffman" || recs[0].GoodputBps != 5e5 {
		t.Errorf("/debug/decisions = %+v", recs)
	}
	if body, _ = get("/debug/decisions?format=jsonl&n=1"); !strings.Contains(body, `"huffman"`) {
		t.Errorf("jsonl decisions = %q", body)
	}
	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
	if body, _ = get("/"); !strings.Contains(body, "/debug/decisions") {
		t.Errorf("index = %q", body)
	}
}

func TestDebugServerNilPieces(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/decisions"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with nil registry/log: status %d", path, resp.StatusCode)
		}
	}
}

type maxRecorder struct{ got int }

func (m *maxRecorder) WriteJSONL(w io.Writer, max int) error {
	m.got = max
	return nil
}

// TestDebugDumpCap pins the hard response ceiling: no ?n= value — absent,
// zero, negative, or enormous — may make /debug/decisions or /debug/spans
// emit more than MaxDumpRecords records, however large the backing rings.
func TestDebugDumpCap(t *testing.T) {
	for n, want := range map[int]int{0: MaxDumpRecords, -3: MaxDumpRecords,
		MaxDumpRecords + 1: MaxDumpRecords, 1 << 30: MaxDumpRecords,
		7: 7, MaxDumpRecords: MaxDumpRecords} {
		if got := clampDump(n); got != want {
			t.Errorf("clampDump(%d) = %d, want %d", n, got, want)
		}
	}

	log := NewDecisionLog(2 * MaxDumpRecords)
	total := MaxDumpRecords + 100
	for i := 0; i < total; i++ {
		log.Add(Record{Stream: "cap", Block: i})
	}
	spans := &maxRecorder{}
	h := Handler(nil, log, spans)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		return w
	}

	var recs []Record
	if err := json.Unmarshal(get("/debug/decisions").Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != MaxDumpRecords {
		t.Fatalf("uncapped /debug/decisions returned %d records, want %d", len(recs), MaxDumpRecords)
	}
	if recs[len(recs)-1].Block != total-1 {
		t.Fatalf("cap dropped the newest record: last block = %d", recs[len(recs)-1].Block)
	}
	sc := bufio.NewScanner(get("/debug/decisions?format=jsonl&n=-1").Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines int
	for sc.Scan() {
		lines++
	}
	if lines != MaxDumpRecords {
		t.Fatalf("jsonl dump wrote %d lines, want %d", lines, MaxDumpRecords)
	}
	for path, want := range map[string]int{
		"/debug/spans":          MaxDumpRecords,
		"/debug/spans?n=999999": MaxDumpRecords,
		"/debug/spans?n=12":     12,
	} {
		get(path)
		if spans.got != want {
			t.Errorf("GET %s passed max=%d to the span dumper, want %d", path, spans.got, want)
		}
	}
}

// TestDecisionLogDumpRacesAdd hammers WriteJSONL while writers wrap the
// ring several times over. Run under -race this pins the lock-free
// contract: dumps may miss the newest records but every line they do emit
// is a whole, ordered record — no torn reads, no panics.
func TestDecisionLogDumpRacesAdd(t *testing.T) {
	log := NewDecisionLog(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					log.Add(Record{Stream: "race", Block: i, Method: "none"})
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf, 0); err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		var lastSeq uint64
		var n int
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var r Record
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("dump %d: torn record: %v", i, err)
			}
			if n > 0 && r.Seq <= lastSeq {
				t.Fatalf("dump %d: sequence went backwards (%d after %d)", i, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			n++
		}
	}
	close(stop)
	wg.Wait()
}
