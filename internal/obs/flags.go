package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ccx/internal/metrics"
	"ccx/internal/tracing"
)

// Flags are the observability flags ccsend, ccbroker and ccrecv share.
type Flags struct {
	debug    *string
	interval *time.Duration
	sample   *float64
	out      *string
}

// AddFlags registers -debug, -metrics-interval, -trace-sample and
// -trace-out on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		debug:    fs.String("debug", "", "serve /metrics, /debug/vars, /debug/spans, and /debug/pprof on this HTTP address (empty disables)"),
		interval: fs.Duration("metrics-interval", 0, "dump a metrics JSON snapshot to stderr at this interval (0 disables)"),
		sample:   fs.Float64("trace-sample", 0, "head-sampling rate (0..1) for blocks this hop originates; blocks that arrive annotated always trace through, and anomalies and method switches are recorded at any rate"),
		out:      fs.String("trace-out", "", "append spans as JSONL to this file (cctrace's input)"),
	}
}

// Plane is one daemon's running observability: whatever the flags asked for.
// Metrics is nil unless the caller brought a registry or -debug or
// -metrics-interval wants one; Tracer is nil unless -debug, -trace-sample or
// -trace-out was given (at rate 0 it records anomalies and switches only).
type Plane struct {
	Metrics  *metrics.Registry
	Tracer   *tracing.Tracer
	dbg      *Server
	stopDump func()
}

// Start builds the hop's tracer (ring of ringSize spans, 0 = the default),
// opens the span file, serves the debug listener and starts the metrics
// dump. reg is the registry to expose; nil makes one when a flag needs it.
func (f *Flags) Start(hop string, reg *metrics.Registry, ringSize int) (*Plane, error) {
	p := &Plane{Metrics: reg}
	if p.Metrics == nil && (*f.debug != "" || *f.interval > 0) {
		p.Metrics = metrics.NewRegistry()
	}
	if *f.debug != "" || *f.sample > 0 || *f.out != "" {
		p.Tracer = tracing.New(hop, *f.sample, ringSize)
	}
	if *f.out != "" {
		if err := p.Tracer.OpenOutput(*f.out); err != nil {
			return nil, fmt.Errorf("trace output: %w", err)
		}
	}
	if *f.debug != "" {
		dbg, err := Serve(*f.debug, p.Metrics, p.Tracer.Ring())
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("debug server: %w", err)
		}
		p.dbg = dbg
		fmt.Fprintf(os.Stderr, "%s: debug plane on http://%s/\n", hop, dbg.Addr())
	}
	p.stopDump = DumpEvery(p.Metrics, *f.interval, os.Stderr)
	return p, nil
}

// Close stops the dump and the listener and flushes the span file.
func (p *Plane) Close() {
	if p.stopDump != nil {
		p.stopDump()
	}
	if p.dbg != nil {
		p.dbg.Close()
	}
	p.Tracer.Close()
}
