package broker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/netsim"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

// TestFanOutAdaptsPerLink is the subsystem's acceptance test: one published
// stream fans out to subscribers behind netsim-shaped links of very
// different speeds, and each subscriber's private adaptation loop must
// drift to a different operating point — raw blocks on the fast LAN-class
// link, compressed blocks on the slow WAN-class link — while a deliberately
// stalled subscriber is evicted without disturbing anyone else.
func TestFanOutAdaptsPerLink(t *testing.T) {
	const (
		eventSize = 16 << 10
		numEvents = 48
	)
	met := metrics.NewRegistry()
	// In-process publishes arrive unannotated, so at rate 1 the broker
	// samples every block and every delivery's decision is a span.
	tracer := tracing.New("ccbroker", 1, 4096)
	cfg := Config{
		QueueLen:     256,
		Policy:       Evict,
		WriteTimeout: 400 * time.Millisecond,
		Heartbeat:    -1,
		Metrics:      met,
		Tracer:       tracer,
	}
	// SpeedScale emulates a CPU slow enough relative to the simulated links
	// that the selector faces the paper's actual trade-off (native reducing
	// speeds would dwarf every netsim profile and compress unconditionally).
	// The constant is build-tagged: the race detector slows the LZ probe
	// ~20x, so the race build scales less to land in the same regime.
	cfg.Engine.SpeedScale = integrationSpeedScale
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Three live links spanning ~600x in rate, in the shape of the paper's
	// Figure 5 classes, plus one stalled consumer.
	links := []netsim.Profile{
		{Name: "lan", RateBps: 60e6, JitterFrac: 0.005, Latency: 100 * time.Microsecond},
		{Name: "campus", RateBps: 4e6, JitterFrac: 0.02, Latency: 300 * time.Microsecond},
		{Name: "wan", RateBps: 0.1e6, JitterFrac: 0.01, Latency: 2 * time.Millisecond},
	}
	type result struct {
		data    []byte
		methods map[codec.Method]int
	}
	results := make([]result, len(links))
	var wg sync.WaitGroup
	for i, prof := range links {
		client, server := netsim.ShapedPipe(prof, int64(1000+i))
		defer client.Close()
		b.HandleConn(server)
		if err := HandshakeSubscribe(client, "md"); err != nil {
			t.Fatalf("%s handshake: %v", prof.Name, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Drain the wire first and decode after EOF: the subscriber's
			// goodput must reflect the shaped link, not this goroutine's
			// decompression speed (which the race detector slows ~20x).
			raw, _ := io.ReadAll(client)
			fr := codec.NewFrameReader(bytes.NewReader(raw), nil)
			res := result{methods: make(map[codec.Method]int)}
			var buf bytes.Buffer
			for {
				data, info, err := fr.ReadBlock()
				if err != nil {
					break
				}
				if len(data) == 0 {
					continue
				}
				res.methods[info.Method]++
				buf.Write(data)
			}
			res.data = buf.Bytes()
			results[i] = res
		}()
	}
	// Subscriber 4 stalls: it completes the handshake and then never reads,
	// so the broker's first write to it blocks until the write deadline.
	stalledClient, stalledServer := net.Pipe()
	defer stalledClient.Close()
	b.HandleConn(stalledServer)
	if err := HandshakeSubscribe(stalledClient, "md"); err != nil {
		t.Fatalf("stalled handshake: %v", err)
	}

	// One publisher, over the network path, streaming OIS transactions cut
	// into event-sized blocks by its own adaptive writer.
	stream := datagen.OISTransactions(numEvents*eventSize, 0.9, 42)
	pubClient, pubServer := net.Pipe()
	b.HandleConn(pubServer)
	if err := HandshakePublish(pubClient, "md"); err != nil {
		t.Fatalf("publish handshake: %v", err)
	}
	selCfg := selector.DefaultConfig()
	selCfg.BlockSize = eventSize
	pubEngine, err := core.NewEngine(core.Config{Selector: selCfg})
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWriter(pubClient, pubEngine, nil)
	if _, err := w.Write(stream); err != nil {
		t.Fatalf("publish stream: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pubClient.Close()

	// Graceful shutdown: the publisher's frames are all submitted (its
	// connection closed), queues drain to every live subscriber, then the
	// connections close and the readers see EOF.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	// (a) Every live subscriber received byte-identical data.
	for i, res := range results {
		if !bytes.Equal(res.data, stream) {
			t.Errorf("%s subscriber: %d bytes received, want %d identical bytes",
				links[i].Name, len(res.data), len(stream))
		}
	}

	// (b) The method histograms diverge: the fast link stays raw while the
	// slow link compresses. Subscriber IDs follow attach order (1=lan,
	// 2=campus, 3=wan, 4=stalled).
	snap := met.Snapshot()
	methodCount := func(id int, m codec.Method) float64 {
		return snap[fmt.Sprintf("sub.%d.method.%s", id, m)]
	}
	fastNone := methodCount(1, codec.None)
	slowNone := methodCount(3, codec.None)
	slowCompressed := float64(numEvents) - slowNone
	t.Logf("histograms: lan=%v campus=%v wan=%v", results[0].methods, results[1].methods, results[2].methods)
	if fastNone < integrationFastNoneFrac*numEvents {
		t.Errorf("fast link sent only %.0f/%d raw blocks; adaptation should leave a fast path uncompressed (histogram: %v)",
			fastNone, numEvents, results[0].methods)
	}
	if slowCompressed < 0.5*numEvents {
		t.Errorf("slow link compressed only %.0f/%d blocks; adaptation should compress on a congested path (histogram: %v)",
			slowCompressed, numEvents, results[2].methods)
	}
	if fastNone <= slowNone {
		t.Errorf("histograms did not diverge: fast none=%.0f, slow none=%.0f", fastNone, slowNone)
	}
	// Compression on the slow path must have actually shrunk the traffic.
	if in, out := snap["sub.3.bytes_in"], snap["sub.3.bytes_out"]; out >= in {
		t.Errorf("slow subscriber wire bytes %.0f >= original %.0f; expected net compression", out, in)
	}

	// (c) The stalled subscriber was evicted without stalling the others
	// (they all completed above), and the metrics snapshot reflects it.
	if ev := snap["broker.evictions"]; ev != 1 {
		t.Errorf("evictions = %.0f, want exactly 1 (the stalled subscriber)", ev)
	}
	if drops := snap["broker.drops"]; drops != 0 {
		t.Errorf("drops = %.0f, want 0 under evict policy with ample queues", drops)
	}
	if got := snap["broker.events_in"]; got != numEvents {
		t.Errorf("events_in = %.0f, want %d", got, numEvents)
	}
	if left := snap["broker.subscribers"]; left != 0 {
		t.Errorf("subscribers gauge = %.0f after shutdown, want 0", left)
	}
	if _, ok := snap["sub.3.queue_depth"]; !ok {
		t.Error("metrics snapshot missing per-subscriber queue depth")
	}

	// (d) Queue telemetry: the slow WAN subscriber must have backed its
	// queue up at some point (high-water mark), and every delivered event
	// must have contributed a time-in-queue observation.
	if hwm := snap["sub.3.queue_hwm"]; hwm < 1 {
		t.Errorf("wan subscriber queue high-water mark = %.0f, want >= 1 on a 600x-slower link", hwm)
	}
	if fast, slow := snap["sub.1.queue_hwm"], snap["sub.3.queue_hwm"]; fast > slow {
		t.Errorf("queue high-water marks inverted: lan %.0f > wan %.0f", fast, slow)
	}
	// 3 live subscribers x numEvents events, minus anything flushed at
	// shutdown; at minimum every wan delivery waited in queue.
	if waits := snap["broker.queue_wait_seconds.count"]; waits < numEvents {
		t.Errorf("time-in-queue observations = %.0f, want >= %d", waits, numEvents)
	}

	// (e) The span ring carries one decision (a decide span, or a migrate
	// span where the path changed class) per delivered block, and its
	// per-stream method mix agrees with the wire-level histograms each
	// subscriber decoded in (b).
	traceMethods := make(map[string]map[string]int)
	for _, sp := range tracer.Ring().Recent(0) {
		if sp.Stage != tracing.StageDecide && sp.Stage != tracing.StageMigrate {
			continue
		}
		if sp.Stream == "" || sp.Method == "" || sp.Decision == nil || sp.Decision.Reason == "" {
			t.Fatalf("incomplete decision span: %+v", sp)
		}
		if sp.Stage == tracing.StageMigrate && !sp.Anomaly {
			t.Fatalf("migrate span not always-on: %+v", sp)
		}
		mm := traceMethods[sp.Stream]
		if mm == nil {
			mm = make(map[string]int)
			traceMethods[sp.Stream] = mm
		}
		mm[sp.Method]++
	}
	for i := range links {
		stream := fmt.Sprintf("sub.%d", i+1)
		for m, n := range results[i].methods {
			if got := traceMethods[stream][m.String()]; got != n {
				t.Errorf("%s has %d %s decisions, wire shows %d",
					stream, got, m, n)
			}
		}
	}
}
