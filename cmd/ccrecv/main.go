// Command ccrecv receives an adaptive compressed stream and writes the
// reconstructed bytes to a file or stdout. It either listens for one ccsend
// connection (the default) or — with -addr and -channel — dials a ccbroker
// and subscribes to an event channel.
//
// Usage:
//
//	ccrecv -listen :9900 -out copy.dat
//
//	ccrecv -addr host:9981 -channel md -out copy.dat   # broker subscriber
//
// Against unreliable links, -resync skips frames that fail their checksum
// and realigns on the next frame boundary instead of aborting, and
// -reconnect N (broker mode) redials with capped exponential backoff after
// transport errors.
//
// With -resume the subscription survives those reconnects without losing
// or repeating data: the receiver tracks the per-channel sequence numbers
// the broker stamps into frames and, on redial, presents the last sequence
// it delivered contiguously. The broker replays everything newer from its
// bounded replay window; if the window no longer reaches back far enough
// the gap is reported explicitly (stderr, metrics, a gap span) — never
// silently skipped. -watchdog D treats a connection that delivers no bytes
// for D as dead, turning a stalled-but-open link into a reconnect instead
// of an indefinite hang:
//
//	ccrecv -addr host:9981 -channel md -out copy.dat \
//	    -reconnect 10 -resume -watchdog 30s
//
// Observability: -debug serves Prometheus /metrics, the JSON /debug/vars
// snapshot, the /debug/spans ring (decode spans of traced blocks, and
// always every skipped corrupt frame, gap and duplicate) and /debug/pprof
// over HTTP; -metrics-interval dumps JSON snapshots to stderr. Both are off
// by default and cost nothing when off.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
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
		fmt.Fprintln(os.Stderr, "ccrecv:", err)
		os.Exit(1)
	}
}

// recvStats accumulates across connections so a reconnecting subscriber
// reports one combined summary.
type recvStats struct {
	blocks, wire, orig, corrupt int64
	methods                     map[codec.Method]int64
}

func run(args []string) error {
	fs := flag.NewFlagSet("ccrecv", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:9900", "listen address")
		addr      = fs.String("addr", "", "dial a ccbroker at this address instead of listening")
		channel   = fs.String("channel", "", "broker channel to subscribe to (requires -addr)")
		out       = fs.String("out", "", "output file (default stdout)")
		timeout   = fs.Duration("timeout", 0, "dial timeout and per-operation I/O deadline (0 = none)")
		resync    = fs.Bool("resync", false, "skip frames that fail their checksum and realign on the next frame boundary")
		reconnect = fs.Int("reconnect", 0, "broker mode: redial up to N times after a transport error (0 = give up)")
		resume    = fs.Bool("resume", false, "broker mode: resume across reconnects — present the last delivered sequence so the broker replays missed blocks and duplicates are suppressed")
		placement = fs.String("placement", "", "broker mode: advertise a compression placement for this subscription (publisher | broker | receiver | auto; empty keeps the broker's default)")
		watchdog  = fs.Duration("watchdog", 0, "broker mode: treat a connection that delivers no bytes for this long as dead and reconnect (0 disables)")
		obsFlags  = obs.AddFlags(fs)
		verbose   = fs.Bool("v", false, "log every received block")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*addr == "") != (*channel == "") {
		return fmt.Errorf("-addr and -channel go together")
	}
	if *reconnect > 0 && *addr == "" {
		return fmt.Errorf("-reconnect only applies to broker mode (-addr/-channel)")
	}
	if *resume && *addr == "" {
		return fmt.Errorf("-resume only applies to broker mode (-addr/-channel)")
	}
	if *watchdog > 0 && *addr == "" {
		return fmt.Errorf("-watchdog only applies to broker mode (-addr/-channel)")
	}
	var advert *selector.Placement
	if *placement != "" {
		if *addr == "" {
			return fmt.Errorf("-placement only applies to broker mode (-addr/-channel)")
		}
		pl, err := selector.ParsePlacement(*placement)
		if err != nil {
			return err
		}
		advert = &pl
	}
	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	// Telemetry stays nil (zero cost) unless an observability flag asks
	// for it.
	plane, err := obsFlags.Start("ccrecv", nil, 0)
	if err != nil {
		return err
	}
	defer plane.Close()
	tel := core.Telemetry{Metrics: plane.Metrics, Tracer: plane.Tracer, Stream: "recv"}

	stats := &recvStats{methods: make(map[codec.Method]int64)}
	var track *core.DeliveryTracker
	if *resume {
		track = new(core.DeliveryTracker)
	}
	if *addr != "" {
		err = subscribeLoop(dst, stats, subOpts{
			addr:      *addr,
			channel:   *channel,
			timeout:   *timeout,
			watchdog:  *watchdog,
			resync:    *resync,
			verbose:   *verbose,
			reconnect: *reconnect,
			track:     track,
			tel:       tel,
			placement: advert,
		})
	} else {
		err = listenOnce(dst, stats, *listen, *timeout, *resync, *verbose, tel)
	}

	fmt.Fprintf(os.Stderr, "received %d blocks, %d wire bytes -> %d bytes",
		stats.blocks, stats.wire, stats.orig)
	for m, n := range stats.methods {
		fmt.Fprintf(os.Stderr, "  %s=%d", m, n)
	}
	if stats.corrupt > 0 {
		fmt.Fprintf(os.Stderr, "  (%d corrupt frames skipped)", stats.corrupt)
	}
	fmt.Fprintln(os.Stderr)
	if track != nil {
		ds := track.Stats()
		fmt.Fprintf(os.Stderr, "resume: %d delivered, %d duplicates suppressed, %d gaps (%d blocks lost)\n",
			ds.Delivered, ds.Dups, ds.GapEvents, ds.GapBlocks)
	}
	return err
}

// listenOnce accepts a single ccsend connection and drains it.
func listenOnce(dst io.Writer, stats *recvStats, listen string, timeout time.Duration, resync, verbose bool, tel core.Telemetry) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "listening on %s\n", ln.Addr())
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	return receive(conn, dst, stats, timeout, resync, verbose, tel, nil)
}

// subOpts carries the broker-subscriber configuration through the
// dial/receive loop.
type subOpts struct {
	addr, channel     string
	timeout, watchdog time.Duration
	resync, verbose   bool
	reconnect         int
	track             *core.DeliveryTracker // non-nil: -resume session state
	tel               core.Telemetry
	placement         *selector.Placement // advertised in the hello; nil asks for the broker's default
}

// subscribeLoop dials the broker and receives, redialing with capped
// exponential backoff after transport errors until the retry budget is
// spent. A connection that delivered at least one block resets the budget,
// so a long-lived subscriber survives any number of isolated outages. With
// o.track the delivery tracker outlives every connection, so reconnects
// resume from the last delivered sequence and replayed duplicates are
// suppressed — exactly-once delivery across the whole session.
func subscribeLoop(dst io.Writer, stats *recvStats, o subOpts) error {
	// Full jitter decorrelates the reconnect storm after a broker sheds a
	// crowd of subscribers at once — without it every victim redials on the
	// same schedule and re-creates the overload it was evicted to relieve.
	bo := netutil.Backoff{Min: netutil.DefaultBackoffMin, Max: 5 * time.Second, Jitter: true}
	retries := 0
	for {
		before := stats.blocks
		err := subscribeOnce(dst, stats, o)
		if err == nil {
			return nil // clean end of stream
		}
		if stats.blocks > before {
			bo.Reset()
			retries = 0
		}
		if retries >= o.reconnect {
			return err
		}
		retries++
		// An overloaded broker's RETRY-AFTER reply knows its recovery
		// horizon better than our schedule: honor it verbatim.
		var ov *broker.OverloadError
		if errors.As(err, &ov) && ov.RetryAfter > 0 {
			bo.SetRetryAfter(ov.RetryAfter)
		}
		d := bo.Next()
		fmt.Fprintf(os.Stderr, "ccrecv: %v; reconnecting in %v (%d/%d)\n", err, d, retries, o.reconnect)
		time.Sleep(d)
	}
}

func subscribeOnce(dst io.Writer, stats *recvStats, o subOpts) error {
	var conn net.Conn
	var err error
	if o.timeout > 0 {
		conn, err = net.DialTimeout("tcp", o.addr, o.timeout)
	} else {
		conn, err = net.Dial("tcp", o.addr)
	}
	if err != nil {
		return err
	}
	defer conn.Close()
	hsConn := netutil.WithTimeout(conn, o.timeout)
	resumed := false
	if o.track != nil {
		if last, started := o.track.LastDelivered(); started {
			var firstSeq uint64
			var err error
			if o.placement != nil {
				firstSeq, err = broker.HandshakeResumePlacement(hsConn, o.channel, last, *o.placement)
			} else {
				firstSeq, err = broker.HandshakeResume(hsConn, o.channel, last)
			}
			if err != nil {
				return fmt.Errorf("resume %q from seq %d: %w", o.channel, last, err)
			}
			if firstSeq > last+1 {
				gap := firstSeq - last - 1
				o.track.NoteGap(gap)
				o.track.SkipTo(firstSeq)
				fmt.Fprintf(os.Stderr, "ccrecv: resume gap on %q: %d blocks evicted past the replay window, resuming at seq %d\n",
					o.channel, gap, firstSeq)
			}
			fmt.Fprintf(os.Stderr, "resumed %q on %s after seq %d\n", o.channel, o.addr, last)
			resumed = true
		}
	}
	if !resumed {
		var err error
		if o.placement != nil {
			err = broker.HandshakeSubscribePlacement(hsConn, o.channel, *o.placement)
		} else {
			err = broker.HandshakeSubscribe(hsConn, o.channel)
		}
		if err != nil {
			return fmt.Errorf("subscribe to %q: %w", o.channel, err)
		}
		fmt.Fprintf(os.Stderr, "subscribed to %q on %s\n", o.channel, o.addr)
	}
	// Ping so a broker enforcing read deadlines keeps us attached even
	// when the channel is quiet; any bytes count, we send empty frames.
	pingDone := make(chan struct{})
	defer close(pingDone)
	go func() {
		ping, _, err := codec.AppendFrameOpts(nil, nil, codec.None, nil, codec.FrameOpts{})
		if err != nil {
			return
		}
		ticker := time.NewTicker(2 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-pingDone:
				return
			case <-ticker.C:
				if _, err := conn.Write(ping); err != nil {
					return
				}
			}
		}
	}()
	// The watchdog is a rolling read deadline: a stalled-but-open link
	// (peer alive at the TCP level, delivering nothing) times out like any
	// other transport error and the loop redials instead of hanging.
	readTO := o.timeout
	if o.watchdog > 0 {
		readTO = o.watchdog
	}
	return receive(conn, dst, stats, readTO, o.resync, o.verbose, o.tel, o.track)
}

// receive drains one connection into dst, optionally resynchronising past
// corrupt frames instead of failing. A non-nil track suppresses replayed
// duplicates and accounts sequence gaps.
func receive(conn net.Conn, dst io.Writer, stats *recvStats, readTimeout time.Duration, resync, verbose bool, tel core.Telemetry, track *core.DeliveryTracker) error {
	r := core.NewReader(netutil.WithTimeouts(conn, readTimeout, 0), nil, func(info codec.BlockInfo) {
		stats.blocks++
		stats.wire += int64(info.CompLen)
		stats.orig += int64(info.OrigLen)
		stats.methods[info.Method]++
		if verbose {
			fmt.Fprintf(os.Stderr, "block %d: %-15s %7d -> %7d bytes\n",
				stats.blocks-1, info.Method, info.CompLen, info.OrigLen)
		}
	})
	r.SetTelemetry(tel)
	// A broker evicting this subscriber (overload shedding, breaker trip)
	// writes a close-reason control frame before severing the conn; surface
	// it as a typed error so the reconnect loop can say why and back off,
	// instead of reporting a generic read error.
	r.SetCloseHandler(func(anno []byte) error {
		if reason, msg, ok := codec.ParseCloseAnno(anno); ok {
			return &broker.EvictedError{Reason: reason, Msg: msg}
		}
		return nil // unknown control frame: treat as heartbeat
	})
	if track != nil {
		r.SetDeliveryTracker(track)
	}
	if resync {
		r.SetCorruptHandler(func(err error) bool {
			stats.corrupt++
			fmt.Fprintf(os.Stderr, "ccrecv: corrupt frame (%v), resynchronising\n", err)
			return true
		})
	}
	if _, err := io.Copy(dst, r); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}
