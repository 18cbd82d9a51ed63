// Command ccsend streams a file (or stdin) over TCP with configurable
// compression: each block's method is chosen by the §2.5 selection
// algorithm from live send-timing and data sampling. It speaks to a ccrecv
// peer directly, or — with -channel — publishes into a ccbroker event
// channel for fan-out to many subscribers.
//
// Usage:
//
//	ccrecv -listen :9900 -out copy.dat      # on the receiver
//	ccsend -addr host:9900 big.dat          # on the sender
//
//	ccsend -addr host:9981 -channel md big.dat   # into a broker channel
//
// Observability: -debug serves Prometheus /metrics, the JSON /debug/vars
// snapshot, the /debug/spans ring (block timing, and every method switch
// with its reason) and /debug/pprof over HTTP for the lifetime of the
// transfer; -metrics-interval dumps JSON snapshots to stderr; -trace-sample
// and -trace-out trace a share of blocks end to end. All are off by default
// and cost nothing when off.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/netutil"
	"ccx/internal/obs"
	"ccx/internal/selector"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccsend:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ccsend", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:9900", "receiver or broker address")
		channel   = fs.String("channel", "", "publish into this ccbroker channel instead of a raw ccrecv peer")
		placement = fs.String("placement", "publisher", "where compression runs: publisher (inline, the default), broker (ship raw, the broker compresses per subscriber; needs -channel), receiver (ship raw end to end), auto (offload whenever the link outruns the codec)")
		blockSize = fs.Int("block", selector.DefaultBlockSize, "block size in bytes")
		workers   = fs.Int("workers", 0, "encode worker goroutines; blocks are compressed in parallel but framed in order (0 = GOMAXPROCS, 1 = the sequential loop)")
		timeout   = fs.Duration("timeout", 0, "dial timeout and per-operation I/O deadline (0 = none)")
		obsFlags  = obs.AddFlags(fs)
		verbose   = fs.Bool("v", false, "log every block's decision")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *blockSize > codec.MaxFrameLen {
		return fmt.Errorf("block size %d exceeds the frame format's limit %d", *blockSize, codec.MaxFrameLen)
	}
	var in io.Reader = os.Stdin
	name := "stdin"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		name = fs.Arg(0)
	}

	cfg := selector.DefaultConfig()
	cfg.BlockSize = *blockSize
	// Telemetry stays nil (zero cost) unless an observability flag asks
	// for it.
	plane, err := obsFlags.Start("ccsend", nil, 0)
	if err != nil {
		return err
	}
	defer plane.Close()
	tel := core.Telemetry{Metrics: plane.Metrics, Tracer: plane.Tracer, Stream: "send"}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	pl, err := selector.ParsePlacement(*placement)
	if err != nil {
		return err
	}
	if pl == selector.PlacementBroker && *channel == "" {
		return fmt.Errorf("-placement broker needs -channel (a raw ccrecv peer has no broker hop)")
	}
	plc := selector.PlacementPolicy{
		Mode: pl,
		Node: selector.PlacementPublisher,
		// With a broker hop downstream, auto-offload targets the broker
		// (it re-compresses per subscriber); point-to-point it targets the
		// receiver.
		Brokered: *channel != "",
	}
	engine, err := core.NewEngine(core.Config{Selector: cfg, Telemetry: tel, Workers: nw, Placement: plc})
	if err != nil {
		return err
	}
	conn, err := dial(*addr, *timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	wire := netutil.WithTimeout(conn, *timeout)
	if *channel != "" {
		if err := broker.HandshakePublishPlacement(wire, *channel, pl); err != nil {
			return fmt.Errorf("publish to %q: %w", *channel, err)
		}
	}

	var blocks, wireBytes, orig int64
	w := core.NewWriter(wire, engine, func(r core.BlockResult) {
		blocks++
		wireBytes += int64(r.WireBytes)
		orig += int64(r.Info.OrigLen)
		if *verbose {
			fmt.Fprintf(os.Stderr, "block %d: %-15s %7d -> %7d bytes  send %v  goodput %.2f MB/s\n",
				r.Index, r.Decision.Method, r.Info.OrigLen, r.Info.CompLen,
				r.SendTime.Round(1000), engine.Monitor().Goodput()/1e6)
		}
	})
	if _, err := io.Copy(w, in); err != nil {
		return fmt.Errorf("send %s: %w", name, err)
	}
	if err := w.Close(); err != nil {
		return err
	}
	if orig > 0 {
		fmt.Fprintf(os.Stderr, "sent %s: %d blocks, %d bytes original, %d on the wire (%.1f%%)\n",
			name, blocks, orig, wireBytes, float64(wireBytes)/float64(orig)*100)
	}
	return nil
}

func dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.Dial("tcp", addr)
}
