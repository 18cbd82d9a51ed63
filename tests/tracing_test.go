package integration

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// dumpSpans merges every hop's span ring into one JSONL file at
// $CCX_SPANS_OUT. CI uploads it as the trace-smoke artifact — a real
// three-hop span dump anyone can feed to cctrace; locally the variable is
// unset and this is a no-op.
func dumpSpans(t *testing.T, tracers ...*tracing.Tracer) {
	path := os.Getenv("CCX_SPANS_OUT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("CCX_SPANS_OUT: %v", err)
	}
	defer f.Close()
	for _, tr := range tracers {
		if err := tr.Ring().WriteJSONL(f, 0); err != nil {
			t.Fatalf("CCX_SPANS_OUT: %v", err)
		}
	}
}

// TestTraceSmokeThreeHop runs the full ccsend → ccbroker → ccrecv path with
// a tracer on every hop (publisher sampling at 1.0, the way a debugging
// operator would run it) and garbage bytes injected mid-stream on the
// publisher link to force a broker resync. It then stitches the three span
// dumps exactly as cctrace does and checks the contract the tool depends
// on: at least one trace crossed all three hops, every complete trace's
// critical-path attribution sums to its end-to-end duration, the forced
// resync shows up in the anomaly roll-up, and the same dump that says where
// the time went says why each method was chosen: a worded decide span on
// the publisher hop and a worded decide or migrate span on the broker hop.
func TestTraceSmokeThreeHop(t *testing.T) {
	const (
		blockSize = 16 << 10
		nBlocks   = 12
	)
	pubTr := tracing.New("ccsend", 1, 4096)
	brkTr := tracing.New("ccbroker", 0, 4096)
	rcvTr := tracing.New("ccrecv", 0, 4096)

	met := metrics.NewRegistry()
	b, err := broker.New(broker.Config{
		Channels:  []string{"md"},
		Heartbeat: -1,
		Metrics:   met,
		Tracer:    brkTr,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- b.Serve(ln) }()

	// Receiver hop: a traced Reader draining the subscription.
	subConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	if err := broker.HandshakeSubscribe(subConn, "md"); err != nil {
		t.Fatal(err)
	}
	var received bytes.Buffer
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		r := core.NewReader(subConn, nil, nil)
		r.SetTelemetry(core.Telemetry{Tracer: rcvTr, Stream: "recv"})
		io.Copy(&received, r)
	}()

	// Publisher hop: a traced adaptive writer. Full-block writes flush
	// synchronously, so the garbage lands exactly between two frames.
	pubConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.HandshakePublish(pubConn, "md"); err != nil {
		t.Fatal(err)
	}
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	engine, err := core.NewEngine(core.Config{
		Selector:  cfg,
		Telemetry: core.Telemetry{Tracer: pubTr, Stream: "send"},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := datagen.OISTransactions(nBlocks*blockSize, 0.9, 7)
	w := core.NewWriter(pubConn, engine, nil)
	if _, err := w.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	// 0xEE never matches the frame magic, so the broker must scan to the
	// next real boundary — an always-on resync anomaly span.
	if _, err := pubConn.Write(bytes.Repeat([]byte{0xEE}, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pubConn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	select {
	case <-subDone:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never saw EOF")
	}
	if !bytes.Equal(received.Bytes(), data) {
		t.Fatalf("subscriber got %d bytes, want %d identical", received.Len(), len(data))
	}

	dumpSpans(t, pubTr, brkTr, rcvTr)

	// Stitch the three hop dumps the way cctrace does.
	spans := pubTr.Ring().Recent(0)
	spans = append(spans, brkTr.Ring().Recent(0)...)
	spans = append(spans, rcvTr.Ring().Recent(0)...)
	rep := tracing.Stitch(spans)

	if rep.Origin != "ccsend" {
		t.Errorf("stitched origin = %q, want ccsend", rep.Origin)
	}
	complete := rep.Complete(3)
	if len(complete) == 0 {
		t.Fatalf("no trace crossed all 3 hops (stitched %d traces from %d spans)",
			len(rep.Traces), len(spans))
	}
	for _, tr := range complete {
		var sum int64
		for _, c := range tr.Attribution() {
			sum += c.Ns
		}
		if sum != tr.Duration() {
			t.Errorf("trace %x: attribution sums to %dns, duration is %dns",
				tr.ID, sum, tr.Duration())
		}
		hops := make(map[string]bool)
		for _, s := range tr.Spans {
			hops[s.Hop] = true
		}
		for _, hop := range []string{"ccsend", "ccbroker", "ccrecv"} {
			if !hops[hop] {
				t.Errorf("trace %x missing hop %s", tr.ID, hop)
			}
		}
	}
	// One file answers both questions: the dump CI uploads carries the
	// reasons beside the timings. Decisions take no time of their own, or the
	// sums above would not have held.
	reasoned := make(map[string]int)
	for _, s := range spans {
		if s.Decision == nil || s.Decision.Reason == "" {
			continue
		}
		if s.Stage == tracing.StageDecide || s.Stage == tracing.StageMigrate {
			reasoned[s.Hop]++
			if s.Dur != 0 {
				t.Errorf("%s span has a duration: %+v", s.Stage, s)
			}
		}
	}
	if reasoned["ccsend"] < nBlocks {
		t.Errorf("publisher hop has %d reasoned decide spans for %d sampled blocks", reasoned["ccsend"], nBlocks)
	}
	if reasoned["ccbroker"] == 0 {
		t.Error("broker hop has no reasoned decide or migrate span")
	}
	resyncs := 0
	for _, s := range rep.Anomalies {
		if s.Stage == tracing.StageResync && s.Hop == "ccbroker" {
			resyncs++
		}
	}
	if resyncs == 0 {
		t.Fatalf("forced corruption left no resync anomaly span; anomalies: %+v", rep.Anomalies)
	}
}
