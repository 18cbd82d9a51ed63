// Command ccswarm is the subscriber-swarm load harness: it runs an
// in-process broker, attaches thousands of fake subscribers over simulated
// links, publishes a block stream, and reports end-to-end delivery latency
// percentiles alongside the shared encode plane's dedup counters.
//
// Its purpose is to demonstrate the encode-once property: broker encode CPU
// scales with the number of *distinct compression methods* in use, not with
// subscriber count. With 10 000 subscribers spread over a handful of link
// profiles, the plane performs a few encodes per block while making tens of
// thousands of deliveries — the "dedup" ratio in the report.
//
//	ccswarm -subs 10000 -events 64 -block 32768 -profiles gigabit,slow1m
//	ccswarm -tiers 1000,10000,100000 -json swarm.json
//	ccswarm -tiers 1000,10000 -baseline bench/swarm_baseline.json -compare cmp.json
//
// Each published block carries a nanosecond timestamp in its first eight
// bytes; every subscriber stamps arrival on decode, so the latency
// histogram measures publish→decode across queueing, (shared) encoding, the
// shaped link, and decompression. The histogram is registered on the
// broker's own metric registry (swarm.latency_seconds), and the report's
// percentiles are computed from that same histogram — the JSON artifact and
// a /metrics scrape cannot disagree. -tiers sweeps subscriber counts and
// prints a connections-vs-latency table; -baseline compares each tier's p99
// against a committed reference and fails the run past -max-regress
// (-compare writes the comparison as a JSON artifact either way). -json
// writes the full report; -min-dedup makes the run fail when
// deliveries/encodes drops below the floor, turning the scaling claim into
// an executable assertion.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/metrics"
	"ccx/internal/netsim"
	"ccx/internal/selector"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccswarm:", err)
		os.Exit(1)
	}
}

// report is the machine-readable summary of one tier (-json).
type report struct {
	Subscribers int     `json:"subscribers"`
	Events      int     `json:"events"`
	BlockBytes  int     `json:"block_bytes"`
	Profiles    string  `json:"profiles"`
	Workers     int     `json:"workers"`
	ElapsedSec  float64 `json:"elapsed_sec"`

	Delivered   int64   `json:"delivered_blocks"`
	Encodes     int64   `json:"plane_encodes"`
	Deliveries  int64   `json:"plane_deliveries"`
	Dedup       float64 `json:"dedup_ratio"` // deliveries per encode
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	EncodeCPU   float64 `json:"encode_cpu_sec"` // summed encode latency
	Classes     int64   `json:"classes"`

	// Placement is the broker-side default placement the run used, and
	// PlacementDeliveries breaks the blocks written to subscribers down by
	// the placement each path decided for them (only non-zero placements
	// appear).
	Placement           string           `json:"placement"`
	PlacementDeliveries map[string]int64 `json:"placement_deliveries,omitempty"`

	LatencyP50 float64 `json:"latency_p50_sec"`
	LatencyP90 float64 `json:"latency_p90_sec"`
	LatencyP99 float64 `json:"latency_p99_sec"`
}

// swarmFile is the multi-tier artifact shape; it doubles as the committed
// baseline format (bench/swarm_baseline.json).
type swarmFile struct {
	Tiers []report `json:"tiers"`
}

// tierComparison is one row of the regression-gate artifact (-compare).
type tierComparison struct {
	Subscribers int     `json:"subscribers"`
	BaselineP99 float64 `json:"baseline_p99_sec"`
	CurrentP99  float64 `json:"current_p99_sec"`
	Ratio       float64 `json:"ratio"`
	Pass        bool    `json:"pass"`
}

// tierOptions is everything one tier's broker lifecycle needs.
type tierOptions struct {
	subs     int
	events   int
	block    int
	interval time.Duration
	profiles string
	profs    []*netsim.Profile
	workers  int
	queue    int
	pol      broker.Policy
	pl       selector.Placement
	seed     int64
	drain    time.Duration
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccswarm", flag.ContinueOnError)
	var (
		subs       = fs.Int("subs", 1000, "number of concurrent fake subscribers")
		tiers      = fs.String("tiers", "", "comma-separated subscriber tiers swept in one run (overrides -subs)")
		events     = fs.Int("events", 64, "blocks to publish")
		block      = fs.Int("block", 32<<10, "published block size in bytes")
		interval   = fs.Duration("interval", 0, "gap between publishes (0 = as fast as the broker accepts)")
		profiles   = fs.String("profiles", "gigabit", "comma-separated link profiles assigned round-robin: gigabit | fast100 | slow1m | international | none")
		workers    = fs.Int("workers", 0, "encode plane worker pool (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 1024, "outbound queue per subscriber, in events")
		policy     = fs.String("policy", "drop", "slow-subscriber policy: drop | evict")
		placemnt   = fs.String("placement", "publisher", "broker-side default compression placement for the swarm's paths: publisher | broker | receiver | auto")
		seed       = fs.Int64("seed", 1, "payload and link-jitter seed")
		jsonPath   = fs.String("json", "", `write the JSON report here ("-" = stdout)`)
		minDedup   = fs.Float64("min-dedup", 0, "fail the run when deliveries/encodes falls below this floor (0 disables)")
		baseline   = fs.String("baseline", "", "compare each tier's p99 against this committed swarm baseline")
		maxRegress = fs.Float64("max-regress", 0.15, "allowed fractional p99 regression against -baseline before the run fails")
		compare    = fs.String("compare", "", `write the baseline-comparison artifact here ("-" = stdout)`)
		drain      = fs.Duration("drain", 2*time.Minute, "graceful-shutdown drain budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *subs < 1 || *events < 1 || *block < 16 {
		return fmt.Errorf("need -subs >= 1, -events >= 1, -block >= 16")
	}
	profs, err := parseProfiles(*profiles)
	if err != nil {
		return err
	}
	pol, err := broker.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	pl, err := selector.ParsePlacement(*placemnt)
	if err != nil {
		return err
	}
	tierSubs := []int{*subs}
	if *tiers != "" {
		tierSubs = tierSubs[:0]
		for _, part := range strings.Split(*tiers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -tiers entry %q", part)
			}
			tierSubs = append(tierSubs, n)
		}
	}

	results := make([]report, 0, len(tierSubs))
	for _, n := range tierSubs {
		o := tierOptions{
			subs: n, events: *events, block: *block, interval: *interval,
			profiles: *profiles, profs: profs, workers: *workers,
			queue: *queue, pol: pol, pl: pl,
			seed: *seed, drain: *drain,
		}
		r, err := runTier(o)
		if err != nil {
			return fmt.Errorf("tier %d: %w", n, err)
		}
		printTier(out, r)
		if *minDedup > 0 && r.Dedup < *minDedup {
			return fmt.Errorf("tier %d: dedup ratio %.1f below floor %.1f: encode sharing regressed", n, r.Dedup, *minDedup)
		}
		results = append(results, r)
	}
	if len(results) > 1 {
		fmt.Fprintf(out, "\n%-12s %9s %9s %9s %8s\n", "connections", "p50(ms)", "p90(ms)", "p99(ms)", "dedup")
		for _, r := range results {
			fmt.Fprintf(out, "%-12d %9.1f %9.1f %9.1f %7.1fx\n",
				r.Subscribers, r.LatencyP50*1e3, r.LatencyP90*1e3, r.LatencyP99*1e3, r.Dedup)
		}
	}

	if *jsonPath != "" {
		var doc any = swarmFile{Tiers: results}
		if len(results) == 1 && *tiers == "" {
			doc = results[0] // single-run shape, for older tooling
		}
		if err := writeJSON(out, *jsonPath, doc); err != nil {
			return err
		}
	}
	if *baseline != "" {
		if err := gateAgainstBaseline(out, results, *baseline, *maxRegress, *compare); err != nil {
			return err
		}
	}
	return nil
}

// runTier runs one complete broker lifecycle at a fixed subscriber count.
func runTier(o tierOptions) (report, error) {
	met := metrics.NewRegistry()
	cfg := broker.Config{
		Channels:  []string{"swarm"},
		QueueLen:  o.queue,
		Policy:    o.pol,
		Placement: o.pl,
		Heartbeat: -1, // deterministic streams
		Metrics:   met,
	}
	cfg.Engine.Selector = selector.DefaultConfig()
	cfg.Engine.Selector.BlockSize = o.block
	cfg.Engine.Workers = o.workers
	if cfg.Engine.Workers <= 0 {
		cfg.Engine.Workers = runtime.GOMAXPROCS(0)
	}
	b, err := broker.New(cfg)
	if err != nil {
		return report{}, err
	}

	// The swarm: each subscriber handshakes over its own (optionally shaped)
	// pipe and decodes frames until the broker hangs up, folding the
	// publish→decode latency of every block into the broker registry's own
	// swarm histogram — the single source for both the report percentiles
	// below and a /metrics scrape.
	lat := met.Histogram(metrics.SwarmLatencyName, metrics.LatencyBuckets)
	delivered := met.Counter(metrics.SwarmDeliveredName)
	met.Gauge(metrics.SwarmSubscribersName).Set(int64(o.subs))
	reg := codec.NewRegistry()
	done := make(chan struct{})
	for i := 0; i < o.subs; i++ {
		var client, server net.Conn
		if p := o.profs[i%len(o.profs)]; p != nil {
			client, server = netsim.ShapedPipe(*p, o.seed+int64(i))
		} else {
			client, server = net.Pipe()
		}
		b.HandleConn(server)
		if err := broker.HandshakeSubscribe(client, "swarm"); err != nil {
			return report{}, fmt.Errorf("subscriber %d handshake: %w", i, err)
		}
		go func(conn net.Conn) {
			defer func() { done <- struct{}{} }()
			defer conn.Close()
			fr := codec.NewFrameReader(conn, reg)
			for {
				data, _, err := fr.ReadBlock()
				if err != nil {
					return
				}
				if len(data) < 8 {
					continue // heartbeat or runt
				}
				stamp := int64(binary.BigEndian.Uint64(data[:8]))
				lat.Observe(time.Duration(time.Now().UnixNano() - stamp).Seconds())
				delivered.Inc()
			}
		}(client)
	}
	fmt.Fprintf(os.Stderr, "ccswarm: %d subscribers attached (%s), publishing %d x %d B\n",
		o.subs, o.profiles, o.events, o.block)

	start := time.Now()
	payload := make([]byte, o.block)
	fillCompressible(payload, o.seed)
	for i := 0; i < o.events; i++ {
		binary.BigEndian.PutUint64(payload[:8], uint64(time.Now().UnixNano()))
		if err := b.Publish("swarm", payload); err != nil {
			return report{}, fmt.Errorf("publish %d: %w", i, err)
		}
		if o.interval > 0 {
			time.Sleep(o.interval)
		}
	}
	// Snapshot the class structure while the swarm is still attached;
	// Shutdown dismantles every membership and zeroes the gauge.
	classes := met.Gauge("chan.swarm.classes").Value()
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		return report{}, fmt.Errorf("shutdown: %w", err)
	}
	for i := 0; i < o.subs; i++ {
		<-done
	}
	elapsed := time.Since(start)

	snap := lat.Snapshot()
	r := report{
		Subscribers: o.subs,
		Events:      o.events,
		BlockBytes:  o.block,
		Profiles:    o.profiles,
		Workers:     cfg.Engine.Workers,
		ElapsedSec:  elapsed.Seconds(),
		Delivered:   delivered.Value(),
		Encodes:     met.Counter("encplane.encodes").Value(),
		Deliveries:  met.Counter("encplane.deliveries").Value(),
		CacheHits:   met.Counter("encplane.cache_hits").Value(),
		CacheMisses: met.Counter("encplane.cache_misses").Value(),
		EncodeCPU:   met.Histogram("encplane.encode_seconds", metrics.LatencyBuckets).Sum(),
		Classes:     classes,
		Placement:   o.pl.String(),
		LatencyP50:  snap.Quantile(0.50),
		LatencyP90:  snap.Quantile(0.90),
		LatencyP99:  snap.Quantile(0.99),
	}
	if r.Encodes > 0 {
		r.Dedup = float64(r.Deliveries) / float64(r.Encodes)
	}
	for p := selector.Placement(0); p < selector.NumPlacements; p++ {
		if n := met.Counter(fmt.Sprintf("ccx.tx_placement.%s", p)).Value(); n > 0 {
			if r.PlacementDeliveries == nil {
				r.PlacementDeliveries = make(map[string]int64)
			}
			r.PlacementDeliveries[p.String()] = n
		}
	}
	return r, nil
}

// printTier renders one tier's human-readable summary.
func printTier(out io.Writer, r report) {
	fmt.Fprintf(out, "subs=%d events=%d block=%dB elapsed=%.2fs placement=%s\n",
		r.Subscribers, r.Events, r.BlockBytes, r.ElapsedSec, r.Placement)
	fmt.Fprintf(out, "delivered=%d encodes=%d deliveries=%d dedup=%.1fx classes=%d cache=%d/%d encode_cpu=%.3fs\n",
		r.Delivered, r.Encodes, r.Deliveries, r.Dedup, r.Classes, r.CacheHits, r.CacheHits+r.CacheMisses, r.EncodeCPU)
	if len(r.PlacementDeliveries) > 0 {
		var parts []string
		for p := selector.Placement(0); p < selector.NumPlacements; p++ {
			if n, ok := r.PlacementDeliveries[p.String()]; ok {
				parts = append(parts, fmt.Sprintf("%s=%d", p, n))
			}
		}
		fmt.Fprintf(out, "placement deliveries: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(out, "latency p50=%.1fms p90=%.1fms p99=%.1fms\n",
		r.LatencyP50*1e3, r.LatencyP90*1e3, r.LatencyP99*1e3)
}

// gateAgainstBaseline compares each tier's p99 against the committed
// baseline and fails on regressions past the allowed fraction. The
// comparison is written as a JSON artifact (when requested) before any
// failure is reported, so CI uploads the evidence either way.
func gateAgainstBaseline(out io.Writer, results []report, path string, maxRegress float64, comparePath string) error {
	base, err := loadBaseline(path)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	byTier := make(map[int]report, len(base))
	for _, r := range base {
		byTier[r.Subscribers] = r
	}
	var rows []tierComparison
	matched := 0
	failed := 0
	for _, r := range results {
		br, ok := byTier[r.Subscribers]
		if !ok {
			continue
		}
		matched++
		row := tierComparison{
			Subscribers: r.Subscribers,
			BaselineP99: br.LatencyP99,
			CurrentP99:  r.LatencyP99,
		}
		switch {
		case math.IsNaN(r.LatencyP99) || r.LatencyP99 <= 0:
			row.Pass = false // a tier that delivered nothing is a regression
		case br.LatencyP99 <= 0 || math.IsNaN(br.LatencyP99):
			row.Pass = true // no meaningful reference; record but do not gate
		default:
			row.Ratio = r.LatencyP99 / br.LatencyP99
			row.Pass = row.Ratio <= 1+maxRegress
		}
		if !row.Pass {
			failed++
		}
		rows = append(rows, row)
		status := "ok"
		if !row.Pass {
			status = "REGRESSION"
		}
		fmt.Fprintf(out, "gate tier %d: p99 %.1fms vs baseline %.1fms (%.2fx, limit %.2fx) %s\n",
			r.Subscribers, row.CurrentP99*1e3, row.BaselineP99*1e3, row.Ratio, 1+maxRegress, status)
	}
	if comparePath != "" {
		doc := struct {
			MaxRegress float64          `json:"max_regress"`
			Tiers      []tierComparison `json:"tiers"`
		}{maxRegress, rows}
		if err := writeJSON(out, comparePath, doc); err != nil {
			return err
		}
	}
	if matched == 0 {
		return fmt.Errorf("baseline %s has no tier matching this run", path)
	}
	if failed > 0 {
		return fmt.Errorf("swarm p99 regression: %d of %d gated tiers over the %.0f%% limit", failed, matched, maxRegress*100)
	}
	return nil
}

// loadBaseline reads a swarm baseline, accepting both the multi-tier
// wrapper and a bare single-run report.
func loadBaseline(path string) ([]report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f swarmFile
	if err := json.Unmarshal(raw, &f); err == nil && len(f.Tiers) > 0 {
		return f.Tiers, nil
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	if r.Subscribers == 0 {
		return nil, fmt.Errorf("no tiers found")
	}
	return []report{r}, nil
}

// writeJSON writes doc as indented JSON to path ("-" = out).
func writeJSON(out io.Writer, path string, doc any) error {
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = out.Write(enc)
	} else {
		err = os.WriteFile(path, enc, 0o644)
	}
	return err
}

// parseProfiles maps the -profiles list to netsim profiles; nil entries mean
// an unshaped in-memory pipe.
func parseProfiles(s string) ([]*netsim.Profile, error) {
	var out []*netsim.Profile
	for _, name := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "gigabit", "1gbit":
			p := netsim.Gigabit
			out = append(out, &p)
		case "fast100", "100mbit":
			p := netsim.Fast100
			out = append(out, &p)
		case "slow1m", "1mbit":
			p := netsim.Slow1M
			out = append(out, &p)
		case "international", "wan":
			p := netsim.International
			out = append(out, &p)
		case "none", "pipe":
			out = append(out, nil)
		case "":
		default:
			return nil, fmt.Errorf("unknown profile %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("need at least one link profile in -profiles")
	}
	return out, nil
}

// fillCompressible fills b (past the 8-byte timestamp slot) with seeded
// text-like data so the selector has something worth compressing.
func fillCompressible(b []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const words = "the quick brown fox jumps over the lazy dog while market data ticks stream onward "
	for i := 8; i < len(b); {
		n := copy(b[i:], words[rng.Intn(len(words)/2):])
		i += n
	}
}
