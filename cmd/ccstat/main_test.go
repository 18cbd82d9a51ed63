package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"ccx/internal/metrics"
	"ccx/internal/obs"
)

// TestFetchAndRender drives the sampling pipeline against a real obs debug
// server: fill a registry the way a broker would, poll /debug/vars twice,
// and check the rendered line carries the deltas.
func TestFetchAndRender(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := obs.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	url := "http://" + srv.Addr().String() + "/debug/vars"

	blocks := reg.Counter("ccx.tx_blocks")
	sizes := reg.Histogram("ccx.tx_block_bytes", metrics.SizeBuckets)
	wires := reg.Histogram("ccx.tx_wire_bytes", metrics.SizeBuckets)
	lz := reg.Counter("ccx.tx_method.lz")
	raw := reg.Counter("ccx.tx_method.none")
	reg.Gauge("broker.subscribers").Set(3)
	wvBatches := reg.Counter("broker.writev_batches")
	wvFrames := reg.Counter("broker.writev_frames")
	encodes := reg.Counter("encplane.encodes")
	deliveries := reg.Counter("encplane.deliveries")
	hits := reg.Counter("encplane.cache_hits")
	misses := reg.Counter("encplane.cache_misses")
	reg.Gauge("chan.md.classes").Set(2)
	reg.Gauge("chan.audit.classes").Set(1)
	reg.Counter("governor.samples").Inc()
	reg.Gauge("governor.level").Set(1)
	demoted := reg.Counter("governor.demoted_blocks")
	shed := reg.Counter("governor.shed_evictions")

	prev, err := fetchVars(client, url)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		blocks.Inc()
		sizes.Observe(64 << 10)
		wires.Observe(16 << 10)
		lz.Inc()
	}
	blocks.Inc()
	sizes.Observe(64 << 10)
	wires.Observe(64 << 10)
	raw.Inc()
	encodes.Add(4)
	deliveries.Add(12)
	hits.Add(3)
	misses.Add(1)
	demoted.Add(5)
	shed.Add(2)
	wvBatches.Add(4)
	wvFrames.Add(14)
	cur, err := fetchVars(client, url)
	if err != nil {
		t.Fatal(err)
	}

	line := renderLine(time.Unix(0, 0).UTC(), prev, cur, time.Second)
	t.Logf("line: %s", line)
	for _, want := range []string{
		"blk    11 (11.0/s)", "[lz=10 none=1]", "subs 3",
		"wv 3.5x",
		"cls 3", "dedup 3.0x", "hit 75%",
		"prs elev", "dem 5", "shed 2",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// 11 * 64KiB original vs 10*16KiB + 64KiB wire = 224KiB/704KiB ≈ 31.8%.
	if !strings.Contains(line, "31.8%") {
		t.Errorf("line %q missing wire ratio 31.8%%", line)
	}

	// A second idle interval renders zero rates without dividing by missing
	// keys or showing stale mixes.
	idle := renderLine(time.Unix(1, 0).UTC(), cur, cur, time.Second)
	if strings.Contains(idle, "[") || !strings.Contains(idle, "(0.0/s)") {
		t.Errorf("idle line %q should have zero rate and no method mix", idle)
	}
}

// TestFetchVarsErrors pins the failure modes an operator actually hits:
// nothing listening, and a non-vars endpoint.
func TestFetchVarsErrors(t *testing.T) {
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if _, err := fetchVars(client, "http://127.0.0.1:1/debug/vars"); err == nil {
		t.Error("want error when nothing is listening")
	}
	srv, err := obs.Serve("127.0.0.1:0", metrics.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := fetchVars(client, "http://"+srv.Addr().String()+"/nope"); err == nil {
		t.Error("want error on a 404 endpoint")
	}
}
