package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/obs"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// TestDebugPlaneEndToEnd runs the full ccsend → ccbroker → ccrecv path with
// the observability plane attached, the way `ccbroker -debug` wires it, and
// audits the plane from the outside over HTTP:
//
//	(a) GET /metrics is valid Prometheus text exposition including at
//	    least one histogram family with cumulative buckets;
//	(b) GET /debug/spans returns every block's decision as a decide or
//	    migrate span beside its timing spans, and the methods it claims
//	    were chosen match the methods actually observed in the frames on
//	    the wire, block for block; GET /debug/decisions is gone (404);
//	(c) GET /debug/vars agrees with the delivery counts.
func TestDebugPlaneEndToEnd(t *testing.T) {
	const (
		blockSize = 16 << 10
		nBlocks   = 24
	)
	met := metrics.NewRegistry()
	// The publisher below does not trace, so the broker is the trace origin
	// and, at rate 1, samples every block.
	tracer := tracing.New("ccbroker", 1, 0)
	b, err := broker.New(broker.Config{
		Channels:  []string{"md"},
		Heartbeat: -1,
		Metrics:   met,
		Tracer:    tracer,
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

	dbg, err := obs.Serve("127.0.0.1:0", met, tracer.Ring())
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	base := "http://" + dbg.Addr().String()

	// Subscriber: record the method of every frame seen on the wire, in
	// order — the ground truth the decision log must agree with.
	subConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	if err := broker.HandshakeSubscribe(subConn, "md"); err != nil {
		t.Fatal(err)
	}
	var wireMethods []string
	var received bytes.Buffer
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		fr := codec.NewFrameReader(subConn, nil)
		for {
			data, info, err := fr.ReadBlock()
			if err != nil {
				return
			}
			if len(data) == 0 {
				continue
			}
			wireMethods = append(wireMethods, info.Method.String())
			received.Write(data)
		}
	}()

	// Publisher: an adaptive writer, as ccsend would run it.
	pubConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.HandshakePublish(pubConn, "md"); err != nil {
		t.Fatal(err)
	}
	cfg := selector.DefaultConfig()
	cfg.BlockSize = blockSize
	pubEngine, err := core.NewEngine(core.Config{Selector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	data := datagen.OISTransactions(nBlocks*blockSize, 0.9, 11)
	w := core.NewWriter(pubConn, pubEngine, nil)
	if _, err := w.Write(data); err != nil {
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
	if len(wireMethods) != nBlocks {
		t.Fatalf("wire carried %d blocks, want %d", len(wireMethods), nBlocks)
	}

	// (a) Prometheus exposition.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text exposition", ct)
	}
	prom := string(body)
	if !strings.Contains(prom, "# TYPE ccx_encode_seconds histogram") {
		t.Error("/metrics missing the encode-latency histogram family")
	}
	wantBucket := `ccx_encode_seconds_bucket{le="+Inf"} ` + fmt.Sprint(nBlocks)
	if !strings.Contains(prom, wantBucket) {
		t.Errorf("/metrics missing cumulative bucket line %q", wantBucket)
	}
	if !strings.Contains(prom, fmt.Sprintf("ccx_tx_blocks %d", nBlocks)) {
		t.Errorf("/metrics tx_blocks != %d", nBlocks)
	}
	// Every non-comment line is "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(prom), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// (b) The decide spans' chosen methods match the wire, block for block.
	resp, err = http.Get(base + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	spans, err := tracing.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	wireBytes := make(map[uint64]int)
	for _, sp := range spans {
		if sp.Stream == "sub.1" && sp.Stage == tracing.StageWrite {
			wireBytes[sp.Seq] = sp.Bytes
		}
	}
	var logMethods []string
	for _, sp := range spans {
		if sp.Stream != "sub.1" || (sp.Stage != tracing.StageDecide && sp.Stage != tracing.StageMigrate) {
			continue
		}
		if sp.Seq != uint64(len(logMethods))+1 {
			t.Fatalf("decisions out of order: seq %d at position %d", sp.Seq, len(logMethods))
		}
		if sp.Decision == nil || sp.Decision.Reason == "" || sp.Decision.BlockLen == 0 || wireBytes[sp.Seq] == 0 || sp.Dur != 0 {
			t.Errorf("decide span missing decision inputs: %+v %+v", sp, sp.Decision)
		}
		logMethods = append(logMethods, sp.Method)
	}
	if len(logMethods) != len(wireMethods) {
		t.Fatalf("ring has %d sub.1 decisions, wire carried %d blocks", len(logMethods), len(wireMethods))
	}
	for i, m := range wireMethods {
		if logMethods[i] != m {
			t.Errorf("block %d: decide span says %q, wire says %q", i, logMethods[i], m)
		}
	}
	if resp, err = http.Get(base + "/debug/decisions"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/decisions: %s, want 404", resp.Status)
	}

	// (c) /debug/vars agrees with the delivery counts.
	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := vars["broker.events_in"]; got != nBlocks {
		t.Errorf("vars broker.events_in = %v, want %d", got, nBlocks)
	}
	if got := vars["ccx.tx_blocks"]; got != nBlocks {
		t.Errorf("vars ccx.tx_blocks = %v, want %d", got, nBlocks)
	}
	if got := vars["ccx.encode_seconds.count"]; got != nBlocks {
		t.Errorf("vars ccx.encode_seconds.count = %v, want %d", got, nBlocks)
	}
}
