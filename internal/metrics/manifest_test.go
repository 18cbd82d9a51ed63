package metrics_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/governor"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

var updateManifest = flag.Bool("update-manifest", false, "rewrite testdata/names.txt from the current metric surface")

// Dynamic name segments collapse so the manifest stays stable across ids,
// channel names, and whichever methods the adaptation loop happened to
// pick during the scenario.
var (
	subSeg    = regexp.MustCompile(`\bsub\.\d+\.`)
	chanSeg   = regexp.MustCompile(`\bchan\.[^.]+\.`)
	methodSeg = regexp.MustCompile(`\bmethod\.[a-z-]+$`)
)

func normalize(name string) string {
	name = subSeg.ReplaceAllString(name, "sub.N.")
	name = chanSeg.ReplaceAllString(name, "chan.C.")
	name = methodSeg.ReplaceAllString(name, "method.M")
	return name
}

// TestMetricNameManifest pins the Prometheus metric surface: it drives the
// sender, receiver, broker, encode-plane, and runtime metric families into
// one registry the way the daemons do, then compares every (kind, name)
// pair against the committed manifest. A renamed or re-typed metric fails
// here instead of silently breaking dashboards. Run with -update-manifest
// after an intentional change.
func TestMetricNameManifest(t *testing.T) {
	reg := metrics.NewRegistry()

	// Runtime family (the obs debug plane starts this sampler).
	metrics.NewRuntimeSampler(reg).Sample()

	// Sender and receiver families: one in-memory transfer with telemetry.
	tel := core.Telemetry{Metrics: reg, Stream: "send"}
	engine, err := core.NewEngine(core.Config{Selector: selector.DefaultConfig(), Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	w := core.NewWriter(&wire, engine, nil)
	payload := bytes.Repeat([]byte("manifest manifest "), 64<<10/18)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := core.NewReader(&wire, nil, nil)
	r.SetTelemetry(core.Telemetry{Metrics: reg, Stream: "recv"})
	if _, err := io.Copy(io.Discard, r); err != nil && err != io.EOF {
		t.Fatal(err)
	}

	// Broker, channel, subscriber, encode-plane, and governor families: a
	// broker serving one subscriber over an in-memory pipe, with the
	// overload governor watching a deliberately tiny byte budget so the
	// overload surface (admission refusals, governor shedding) registers
	// too.
	b, err := broker.New(broker.Config{
		Channels:  []string{"md"},
		Heartbeat: -1,
		QueueLen:  8,
		Policy:    broker.DropOldest,
		Governor:  &governor.Config{MemBudget: -1, BytesBudget: 256 << 10, Interval: time.Hour},
		Metrics:   reg,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	b.HandleConn(server)
	if err := broker.HandshakeSubscribe(client, "md"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Publish("md", []byte(fmt.Sprintf("block-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Read only once all three blocks sit with the subscriber: the pipe
	// blocks its write loop on the first frame, so at least two of them go
	// out as one vectored batch and the writev counters always register.
	delivered := reg.Counter("encplane.deliveries")
	testx.WaitUntil(t, "the published blocks in the subscriber's queue", func() bool { return delivered.Value() >= 3 })
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := codec.NewFrameReader(client, nil)
	for got := 0; got < 3; {
		data, _, err := fr.ReadBlock()
		if err != nil {
			t.Fatalf("after %d blocks: %v", got, err)
		}
		if len(data) > 0 {
			got++
		}
	}

	// Overload family: with the subscriber now stalled, incompressible
	// blocks back its queue up past the byte budget; one sample goes
	// critical (shedding the stalled queue), and the next subscribe attempt
	// is refused — registering the admission and shed counters.
	rng := rand.New(rand.NewSource(7))
	junk := make([]byte, 64<<10)
	for i := 0; i < 6; i++ {
		rng.Read(junk)
		if err := b.Publish("md", junk); err != nil {
			t.Fatal(err)
		}
	}
	// Delivery is asynchronous, so sample until the backed-up queue is both
	// visible (critical) and deep enough that the governor sheds it. The
	// eviction itself finishes on the subscriber's write loop, so also wait
	// for the teardown — broker.evictions registers there — before taking
	// the snapshot. The stored level stays critical (no further samples),
	// which is what the admission check below reads.
	shed := reg.Counter("governor.shed_evictions")
	testx.WaitUntil(t, "the governor to shed the stalled subscriber", func() bool {
		b.Governor().SampleNow()
		return shed.Value() > 0
	})
	testx.WaitUntil(t, "the shed subscriber's teardown", func() bool { return b.Subscribers() == 0 })
	refused, rserver := net.Pipe()
	b.HandleConn(rserver)
	if err := broker.HandshakeSubscribe(refused, "md"); err == nil {
		t.Fatal("subscribe under critical memory should be refused")
	}
	refused.Close()

	// Swarm family: cmd/ccswarm registers these on the broker's registry
	// (the report's percentiles read the same histogram a /metrics scrape
	// sees); register them here the same way so the names stay pinned.
	reg.Histogram(metrics.SwarmLatencyName, metrics.LatencyBuckets).Observe(0.01)
	reg.Gauge(metrics.SwarmSubscribersName).Set(1)
	reg.Counter(metrics.SwarmDeliveredName).Inc()

	seen := make(map[string]bool)
	for _, v := range reg.Views() {
		seen[fmt.Sprintf("%-9s %s", v.Kind, normalize(v.Name))] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "names.txt")
	if *updateManifest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("manifest rewritten: %d names", len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing manifest (run go test ./internal/metrics -run Manifest -update-manifest): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric surface changed; diff against %s:\n%s\n"+
			"If intentional, update dashboards and run with -update-manifest.",
			path, diffLines(string(want), got))
	}
}

// diffLines renders a minimal set-difference between two sorted manifests.
func diffLines(want, got string) string {
	w := strings.Split(strings.TrimSpace(want), "\n")
	g := strings.Split(strings.TrimSpace(got), "\n")
	ws, gs := make(map[string]bool), make(map[string]bool)
	for _, l := range w {
		ws[l] = true
	}
	for _, l := range g {
		gs[l] = true
	}
	var sb strings.Builder
	for _, l := range w {
		if !gs[l] {
			fmt.Fprintf(&sb, "- %s\n", l)
		}
	}
	for _, l := range g {
		if !ws[l] {
			fmt.Fprintf(&sb, "+ %s\n", l)
		}
	}
	return sb.String()
}
