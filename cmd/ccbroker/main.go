// Command ccbroker runs the fan-out broker daemon: one TCP endpoint where a
// publisher streams codec frames into a named event channel and any number
// of subscribers attach to receive them, each behind its own adaptation
// loop. A subscriber on a fast link gets raw or lightly-compressed frames; a
// subscriber on a congested link drifts toward heavier compression — the
// paper's per-path configurable compression, multiplied across consumers.
//
// A minimal three-terminal session:
//
//	ccbroker -listen :9981 -channels md,audit -policy evict    # broker
//	ccsend -addr host:9981 -channel md -in ticks.dat           # publisher
//	ccrecv -addr host:9981 -channel md -out ticks.copy         # subscriber
//
// Slow subscribers are handled per -policy: "drop" discards their oldest
// queued events (each drop is counted), "evict" disconnects them so they
// can reconnect and resynchronise.
//
// Every block published through a channel is stamped with a monotonically
// increasing sequence number and retained, with the frames encoded from it,
// in a bounded per-channel replay window (-replay-blocks / -replay-bytes). A
// subscriber that reconnects with ccrecv -resume presents its last
// delivered sequence and the broker replays everything newer it still
// holds, without re-encoding what the window kept; blocks evicted past the
// window are reported as an explicit gap.
//
// Observability: -metrics-interval dumps a metrics snapshot (bytes in/out,
// per-method histograms, queue depths, drops, evictions) to stderr at a
// fixed interval, and -debug serves the live debug plane over HTTP:
//
//	ccbroker -listen :9981 -channels md -debug 127.0.0.1:9984
//	curl -s http://127.0.0.1:9984/metrics           # Prometheus exposition
//	curl -s http://127.0.0.1:9984/debug/vars        # JSON snapshot
//	curl -s http://127.0.0.1:9984/debug/spans       # recent spans: timing and decisions
//	ccstat -addr 127.0.0.1:9984                     # one-line/s operator view
//
// net/http/pprof is mounted under /debug/pprof/ on the same listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ccx/internal/broker"
	"ccx/internal/governor"
	"ccx/internal/metrics"
	"ccx/internal/obs"
	"ccx/internal/selector"
	"ccx/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], make(chan struct{})); err != nil {
		fmt.Fprintln(os.Stderr, "ccbroker:", err)
		os.Exit(1)
	}
}

// run starts the broker and blocks until stop closes or SIGINT/SIGTERM,
// then shuts down gracefully, draining subscriber queues.
func run(args []string, stop chan struct{}) error {
	fs := flag.NewFlagSet("ccbroker", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":9981", "accept publishers and subscribers on this TCP address")
		channels = fs.String("channels", "events", "comma-separated channel names to serve")
		queueLen = fs.Int("queue", broker.DefaultQueueLen, "bounded outbound queue per subscriber, in events")
		policy   = fs.String("policy", "drop", "slow-subscriber policy: drop (oldest) | evict")
		placemnt = fs.String("placement", "publisher", "default compression placement for subscriber paths: publisher (broker-side encode, the default), receiver (ship raw, consumers decompress nothing), auto (per-path break-even); a subscriber hello that names a placement overrides this per session")
		workers  = fs.Int("workers", 0, "encode worker goroutines in the shared encode plane, per channel; distinct (block, method) pairs compress in parallel but hit the wire in order (0 = GOMAXPROCS, 1 = sequential)")
		hb       = fs.Duration("hb", broker.DefaultHeartbeat, "idle-link heartbeat interval (negative disables)")
		rblocks  = fs.Int("replay-blocks", broker.DefaultReplayBlocks, "per-channel replay window, in blocks: recent blocks kept with their encoded frames for resuming subscribers and migrated dequeues (0 = default)")
		rbytes   = fs.Int64("replay-bytes", broker.DefaultReplayBytes, "per-channel replay window, in raw payload bytes (0 = default)")
		rto      = fs.Duration("rtimeout", 0, "per-read idle deadline on connections (0 = none)")
		wto      = fs.Duration("wtimeout", 0, "per-write deadline on subscriber links (0 = none)")
		obsFlags = obs.AddFlags(fs)
		traceLen = fs.Int("trace", tracing.DefaultRingSize, "span ring capacity (served at /debug/spans)")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		govern   = fs.Bool("governor", false, "enable the overload governor: sample memory/CPU pressure, degrade compression, shed load, and refuse new subscribers under critical memory pressure (implied by the -mem-budget/-bytes-budget/-governor-interval flags)")
		memBudg  = fs.Int64("mem-budget", 0, "governor heap budget in bytes (0 = inherit GOMEMLIMIT, negative = disable the heap dimension)")
		byteBudg = fs.Int64("bytes-budget", 0, "governor budget for aggregate held bytes — subscriber queues and the replay windows' blocks and frames (0 = default)")
		govIntvl = fs.Duration("governor-interval", 0, "governor sampling interval (0 = default)")
		brkWait  = fs.Duration("breaker-wait", 0, "slow-subscriber circuit breaker: evict a subscriber whose queue wait stays over this for -breaker-window (0 disables)")
		brkWin   = fs.Duration("breaker-window", 0, "how long queue wait must stay over -breaker-wait before the breaker trips (0 = default)")
		rAfter   = fs.Duration("retry-after", 0, "retry delay suggested to subscribers refused by governor admission control (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var names []string
	for _, n := range strings.Split(*channels, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("need at least one channel name in -channels")
	}
	pol, err := broker.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	pl, err := selector.ParsePlacement(*placemnt)
	if err != nil {
		return err
	}

	plane, err := obsFlags.Start("ccbroker", metrics.NewRegistry(), *traceLen)
	if err != nil {
		return err
	}
	defer plane.Close()
	cfg := broker.Config{
		Channels:     names,
		QueueLen:     *queueLen,
		Policy:       pol,
		Placement:    pl,
		Heartbeat:    *hb,
		ReplayBlocks: *rblocks,
		ReplayBytes:  *rbytes,
		ReadTimeout:  *rto,
		WriteTimeout: *wto,
		Metrics:      plane.Metrics,
		Tracer:       plane.Tracer,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ccbroker: "+format+"\n", args...)
		},
	}
	cfg.BreakerWait = *brkWait
	cfg.BreakerWindow = *brkWin
	cfg.RetryAfter = *rAfter
	if *govern || *memBudg != 0 || *byteBudg != 0 || *govIntvl > 0 {
		cfg.Governor = &governor.Config{
			MemBudget:   *memBudg,
			BytesBudget: *byteBudg,
			Interval:    *govIntvl,
		}
	}
	cfg.Engine.Workers = *workers
	if cfg.Engine.Workers <= 0 {
		cfg.Engine.Workers = runtime.GOMAXPROCS(0)
	}
	b, err := broker.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ccbroker: serving %s on %s (policy=%s queue=%d)\n",
		strings.Join(names, ","), ln.Addr(), pol, *queueLen)
	serveDone := make(chan error, 1)
	go func() { serveDone <- b.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-stop:
	case <-sig:
	case err := <-serveDone:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
