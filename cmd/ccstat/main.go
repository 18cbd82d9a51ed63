// Command ccstat is the operator's view of a running ccx process: point it
// at a daemon's -debug address and it polls /debug/vars, printing one line
// per interval with the rates that matter — blocks and bytes per second,
// wire ratio, the method mix the adaptation loop is currently choosing,
// queue pressure, and corruption counts.
//
//	ccbroker -listen :9981 -channels md -debug 127.0.0.1:9984 &
//	ccstat -addr 127.0.0.1:9984
//	15:04:05  blk    48 (12.0/s)  data 1.5 MB/s  wire 490 kB/s ( 31.9%)  [lz=10 none=2]  subs 3  cls 2  dedup 1.5x  hit 72%
//
// Broker endpoints additionally render the shared encode plane's health:
// "cls" is the live method-class count, "dedup" the interval's deliveries
// per encode (fan-out width the plane served per compression), and "hit"
// the frame-cache hit rate.
//
// It works against any of ccbroker, ccsend, and ccrecv: the line renders
// whichever of the tx/rx/broker metric families the endpoint exposes and
// omits the rest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccstat:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("ccstat", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9984", "debug address of a ccx process started with -debug")
		interval = fs.Duration("interval", time.Second, "seconds between samples")
		count    = fs.Int("n", 0, "stop after this many lines (0 = run until interrupted)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: *interval}
	url := "http://" + *addr + "/debug/vars"

	prev, err := fetchVars(client, url)
	if err != nil {
		return err
	}
	// An absolute ticker, not Sleep: Sleep(interval) after each fetch adds
	// the fetch+render time to every cycle, so lines drift late and the
	// "per second" rates (divided by the nominal interval) overshoot.
	// Rates divide by the true elapsed time between fetches instead.
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	prevAt := time.Now()
	for printed := 0; *count == 0 || printed < *count; printed++ {
		<-ticker.C
		cur, err := fetchVars(client, url)
		if err != nil {
			return err
		}
		now := time.Now()
		fmt.Fprintln(out, renderLine(now, prev, cur, now.Sub(prevAt)))
		prev, prevAt = cur, now
	}
	return nil
}

// fetchVars pulls the flat JSON snapshot a ccx -debug endpoint serves at
// /debug/vars.
func fetchVars(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var vars map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return vars, nil
}

// renderLine condenses one polling interval into a single status line.
// Every segment is optional: a segment renders only when the endpoint
// exposes its metric family, so the same code reads sender, receiver, and
// broker endpoints.
func renderLine(now time.Time, prev, cur map[string]float64, dt time.Duration) string {
	delta := func(key string) float64 { return cur[key] - prev[key] }
	secs := dt.Seconds()

	var seg []string
	seg = append(seg, now.Format("15:04:05"))

	blocks := cur["ccx.tx_blocks"] + cur["ccx.rx_blocks"]
	blockRate := (delta("ccx.tx_blocks") + delta("ccx.rx_blocks")) / secs
	seg = append(seg, fmt.Sprintf("blk %5.0f (%.1f/s)", blocks, blockRate))

	data := delta("ccx.tx_block_bytes.sum") + delta("ccx.rx_block_bytes.sum")
	wire := delta("ccx.tx_wire_bytes.sum") + delta("ccx.rx_wire_bytes.sum")
	if data > 0 {
		seg = append(seg, fmt.Sprintf("data %s", rate(data, secs)),
			fmt.Sprintf("wire %s (%5.1f%%)", rate(wire, secs), wire/data*100))
	}
	if mix := methodMix(prev, cur); mix != "" {
		seg = append(seg, mix)
	}
	// Compression placement: where the interval's blocks were (or will be)
	// compressed. Brokers expose per-class delivery counts, senders the
	// per-block placement decisions; either renders as e.g.
	// "plc[publisher=40 receiver=8]", and the segment disappears entirely on
	// endpoints (or intervals) without placement activity.
	if plc := placementMix(prev, cur); plc != "" {
		seg = append(seg, plc)
	}
	if subs, ok := cur["broker.subscribers"]; ok {
		seg = append(seg, fmt.Sprintf("subs %.0f", subs))
	}
	// The interval's vectored-write coalescing: frames per writev batch
	// (higher means fan-out backlogs are being batched onto the wire).
	if batches := delta("broker.writev_batches"); batches > 0 {
		seg = append(seg, fmt.Sprintf("wv %.1fx", delta("broker.writev_frames")/batches))
	}
	// Overload governor: the current pressure level, plus the interval's
	// degradation activity (demoted blocks, shed subscribes/evictions,
	// breaker trips) when any occurred. Only endpoints running a governor
	// expose governor.samples, so the segment vanishes elsewhere.
	if _, ok := cur["governor.samples"]; ok {
		seg = append(seg, fmt.Sprintf("prs %s", pressureName(cur["governor.level"])))
		for _, c := range [...]struct{ key, label string }{
			{"governor.demoted_blocks", "dem"},
			{"governor.shed_subscribes", "refused"},
			{"governor.shed_evictions", "shed"},
			{"governor.breaker_trips", "brk"},
		} {
			if d := delta(c.key); d > 0 {
				seg = append(seg, fmt.Sprintf("%s %.0f", c.label, d))
			}
		}
	}
	// Runtime health: goroutine count (leak canary), from the obs plane's
	// built-in runtime sampler.
	if gor, ok := cur["go.goroutines"]; ok {
		seg = append(seg, fmt.Sprintf("gor %.0f", gor))
	}
	// Shared encode plane: live class count across channels, the interval's
	// encode-dedup ratio (deliveries per encode — the encode-once payoff),
	// and the frame-cache hit rate feeding replays and migrations.
	if _, ok := cur["encplane.encodes"]; ok {
		var classes float64
		for key, v := range cur {
			if strings.HasPrefix(key, "chan.") && strings.HasSuffix(key, ".classes") {
				classes += v
			}
		}
		seg = append(seg, fmt.Sprintf("cls %.0f", classes))
		if enc := delta("encplane.encodes"); enc > 0 {
			seg = append(seg, fmt.Sprintf("dedup %.1fx", delta("encplane.deliveries")/enc))
		}
		if hits, misses := delta("encplane.cache_hits"), delta("encplane.cache_misses"); hits+misses > 0 {
			seg = append(seg, fmt.Sprintf("hit %.0f%%", hits/(hits+misses)*100))
		}
	}
	for _, c := range [...]struct{ key, label string }{
		{"broker.drops", "drops"},
		{"broker.evictions", "evict"},
		{"ccx.rx_corrupt_frames", "corrupt"},
		{"ccx.tx_fallbacks", "fallback"},
	} {
		if cur[c.key] > 0 {
			seg = append(seg, fmt.Sprintf("%s %.0f", c.label, cur[c.key]))
		}
	}
	if p99, ok := cur["broker.queue_wait_seconds.p99"]; ok {
		seg = append(seg, fmt.Sprintf("q.p99 %s", time.Duration(p99*float64(time.Second)).Round(10*time.Microsecond)))
	}
	return strings.Join(seg, "  ")
}

// methodMix summarizes which compression methods the interval's blocks
// used, e.g. "[lz=10 none=2]". Sender endpoints expose ccx.tx_method.*,
// receivers ccx.rx_method.*; the busier family wins.
func methodMix(prev, cur map[string]float64) string {
	for _, prefix := range []string{"ccx.tx_method.", "ccx.rx_method."} {
		type mc struct {
			name string
			n    float64
		}
		var mix []mc
		for key, v := range cur {
			if d := v - prev[key]; strings.HasPrefix(key, prefix) && d > 0 {
				mix = append(mix, mc{strings.TrimPrefix(key, prefix), d})
			}
		}
		if len(mix) == 0 {
			continue
		}
		sort.Slice(mix, func(i, j int) bool {
			if mix[i].n != mix[j].n {
				return mix[i].n > mix[j].n
			}
			return mix[i].name < mix[j].name
		})
		parts := make([]string, len(mix))
		for i, m := range mix {
			parts[i] = fmt.Sprintf("%s=%.0f", m.name, m.n)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return ""
}

// placementMix summarizes where the interval's blocks were compressed,
// e.g. "plc[publisher=40 receiver=8]", from ccx.tx_placement.* — one count
// per block a sender or a broker subscriber path decided.
func placementMix(prev, cur map[string]float64) string {
	const prefix = "ccx.tx_placement."
	type pc struct {
		name string
		n    float64
	}
	var mix []pc
	for key, v := range cur {
		if d := v - prev[key]; strings.HasPrefix(key, prefix) && d > 0 {
			mix = append(mix, pc{strings.TrimPrefix(key, prefix), d})
		}
	}
	if len(mix) == 0 {
		return ""
	}
	sort.Slice(mix, func(i, j int) bool {
		if mix[i].n != mix[j].n {
			return mix[i].n > mix[j].n
		}
		return mix[i].name < mix[j].name
	})
	parts := make([]string, len(mix))
	for i, p := range mix {
		parts[i] = fmt.Sprintf("%s=%.0f", p.name, p.n)
	}
	return "plc[" + strings.Join(parts, " ") + "]"
}

// pressureName maps the governor.level gauge to the short operator name.
func pressureName(level float64) string {
	switch level {
	case 0:
		return "ok"
	case 1:
		return "elev"
	case 2:
		return "crit"
	}
	return fmt.Sprintf("lvl%d", int(level))
}

// rate renders bytes-per-interval as a human bytes/s figure.
func rate(bytes, secs float64) string {
	bps := bytes / secs
	switch {
	case bps >= 1e6:
		return fmt.Sprintf("%.1f MB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1f kB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f B/s", bps)
	}
}
