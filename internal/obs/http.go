package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ccx/internal/metrics"
	"ccx/internal/tracing"
)

// MaxDumpRecords is the hard ceiling on spans one /debug/spans response may
// carry. The ring size is operator-configurable, so without a cap a casual
// curl against a loaded broker with a large ring dumps unbounded JSONL from
// inside the serving process. Requests asking for more — or for a
// non-positive/absent n — get exactly this many of the newest spans.
const MaxDumpRecords = 4096

// clampDump applies MaxDumpRecords to a raw ?n= value.
func clampDump(n int) int {
	if n <= 0 || n > MaxDumpRecords {
		return MaxDumpRecords
	}
	return n
}

// Handler returns the debug plane as an http.Handler:
//
//	GET /metrics           Prometheus text exposition of reg
//	GET /debug/vars        flat JSON snapshot of reg (ccstat's feed)
//	GET /debug/spans       recent spans as JSONL (?n=N caps the count):
//	                       timing spans and decide spans alike —
//	                       cmd/cctrace's feed
//	GET /debug/pprof/...   the standard runtime profiles
//	GET /                  a plain-text index of the above
//
// reg and spans may each be nil (a disabled tracer's nil ring passes
// straight through); the corresponding endpoints then serve empty
// documents, so one mux shape fits every daemon.
func Handler(reg *metrics.Registry, spans *tracing.Ring) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if reg == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		_ = spans.WriteJSONL(w, clampDump(n))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "ccx debug plane\n\n"+
			"  /metrics          Prometheus text exposition\n"+
			"  /debug/vars       JSON metrics snapshot\n"+
			"  /debug/spans      recent spans as JSONL: block timing and selector decisions (?n=N)\n"+
			"  /debug/pprof/     runtime profiles\n")
	})
	return mux
}

// Server is a running debug HTTP listener.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	stopRun func()
}

// Serve starts the debug plane on addr (e.g. ":6060" or "127.0.0.1:0")
// and serves it in the background until Close. The bound address is
// available via Addr, so ":0" works in tests.
func Serve(addr string, reg *metrics.Registry, spans *tracing.Ring) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	srv := &http.Server{
		Handler:           Handler(reg, spans),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	s := &Server{ln: ln, srv: srv}
	if reg != nil {
		// Anything serving the debug plane also reports its own runtime
		// health (go.goroutines, go.heap_alloc_bytes, go.gc_pause_seconds…)
		// without each daemon wiring a sampler.
		s.stopRun = metrics.StartRuntimeSampler(reg, 0)
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener, any in-flight handlers, and the runtime
// metrics sampler.
func (s *Server) Close() error {
	if s.stopRun != nil {
		s.stopRun()
	}
	return s.srv.Close()
}
