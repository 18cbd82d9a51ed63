package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccx/internal/tracing"
)

// writeDump writes spans as one hop's JSONL dump and returns its path.
func writeDump(t *testing.T, name string, spans []tracing.Span) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// synthetic three-hop dumps: a publisher with skew 0, a broker whose clock
// runs 5µs ahead, a receiver 9µs ahead. Two traces.
func dumps(t *testing.T) (pub, brk, rcv string) {
	t.Helper()
	var pubS, brkS, rcvS []tracing.Span
	for i, id := range []uint64{0xA1, 0xA2} {
		base := int64(1_000_000 + i*100_000)
		// The second trace's frames sit 700ns longer on each wire: after the
		// one-way-delay floor correction (which pins the first trace's
		// hand-off gaps at zero) that surplus must surface as "wire" time.
		jitter := int64(i) * 700
		pubS = append(pubS,
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccsend", Stage: tracing.StageStamp, Start: base},
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccsend", Stage: tracing.StageDecide, Start: base + 100, Method: "lz",
				Decision: &tracing.Decision{Reason: "line slow: dictionary coding"}},
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccsend", Stage: tracing.StageEncode, Start: base + 100, Dur: 400, Method: "lz"},
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccsend", Stage: tracing.StageWrite, Start: base + 500, Dur: 200},
		)
		brkS = append(brkS,
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccbroker", Stage: tracing.StageDecode, Start: base + 5800 + jitter},
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccbroker", Stage: tracing.StageQueue, Start: base + 5800 + jitter, Dur: 300},
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccbroker", Stage: tracing.StageWrite, Start: base + 6100 + jitter, Dur: 150},
		)
		rcvS = append(rcvS,
			tracing.Span{Trace: id, Seq: uint64(i + 1), Hop: "ccrecv", Stage: tracing.StageDecode, Start: base + 9400 + 2*jitter, Dur: 250, Method: "lz"},
		)
	}
	brkS = append(brkS,
		tracing.Span{Hop: "ccbroker", Stage: tracing.StageResync, Start: 999, Err: "checksum mismatch", Anomaly: true},
		tracing.Span{Hop: "ccbroker", Stream: "sub.2", Stage: tracing.StageMigrate, Start: 1999, Method: "huffman", Placement: "publisher", Anomaly: true,
			Decision: &tracing.Decision{Reason: "line slow but probe ratio above cutoff"}})
	return writeDump(t, "pub.jsonl", pubS), writeDump(t, "brk.jsonl", brkS), writeDump(t, "rcv.jsonl", rcvS)
}

func TestStitchThreeDumps(t *testing.T) {
	pub, brk, rcv := dumps(t)
	var out bytes.Buffer
	err := run([]string{"-min-hops", "3", "-require", "2", "-require-anomaly", pub, brk, rcv}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"2 complete", "origin ccsend", "critical path", "wire", "waterfall", "resync", "checksum mismatch",
		// The reason rides beside the decide row of a waterfall and the
		// migrate row of the always-on roll-up.
		"lz: line slow: dictionary coding", "-> huffman/publisher: line slow but probe ratio above cutoff"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	// Causal hop order must survive into the waterfall header.
	if !strings.Contains(text, "ccsend -> ccbroker -> ccrecv") {
		t.Fatalf("hop order wrong:\n%s", text)
	}
}

func TestJSONReportSharesSumToDuration(t *testing.T) {
	pub, brk, rcv := dumps(t)
	var out bytes.Buffer
	if err := run([]string{"-json", "-min-hops", "3", pub, brk, rcv}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var jr jsonReport
	if err := json.Unmarshal(out.Bytes(), &jr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if jr.Complete != 2 || jr.Origin != "ccsend" {
		t.Fatalf("report = %+v", jr)
	}
	// Critical-path rows partition total end-to-end time: their sum equals
	// the sum of all complete trace durations.
	var sum int64
	for _, c := range jr.Critical {
		sum += c.Ns
	}
	if sum <= 0 {
		t.Fatalf("critical path sums to %d", sum)
	}
	if len(jr.Anomalies) != 2 {
		t.Fatalf("anomalies = %d", len(jr.Anomalies))
	}
}

func TestRequireFailsOnIncompleteTraces(t *testing.T) {
	pub, _, _ := dumps(t)
	var out bytes.Buffer
	if err := run([]string{"-min-hops", "3", "-require", "1", pub}, &out); err == nil {
		t.Fatal("single-hop dump satisfied a 3-hop requirement")
	}
}
