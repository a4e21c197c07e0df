// Package endpoint holds the parts of the observability layer that need
// an HTTP server or the runtime profiler: the metrics endpoint (Serve),
// the live bundle the run commands share (StartLive) and the pprof file
// hooks (StartProfiles). They live apart from obs so that core, sim and
// exp, which import obs for its collector and registry, link no net/http,
// net/http/pprof, expvar or runtime/pprof: a program that only simulates
// carries none of them (TestInternalImportRule keeps it so).
package endpoint

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"semloc/internal/obs"
)

// Server exposes a registry over HTTP for the duration of one command
// invocation:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/vars    expvar JSON (standard published vars + the registry)
//	/healthz       liveness: 200 once the listener is up
//	/readyz        readiness: 503 until SetReady(true), 200 after
//	/debug/pprof/  the standard net/http/pprof profile handlers
//
// Security note: an empty host in the listen address (":9090") is
// rewritten to 127.0.0.1 — the endpoint exposes pprof and internal
// counters, so it must be opted onto the network explicitly by naming a
// non-loopback bind address (e.g. 0.0.0.0:9090).
type Server struct {
	ln    net.Listener
	srv   *http.Server
	mux   *http.ServeMux
	reg   *obs.Registry
	ready atomic.Bool
	done  chan struct{}
}

// localhostDefault rewrites a listen address with an empty host
// (":9090") to bind loopback only.
func localhostDefault(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen // let net.Listen produce the real error
	}
	if host == "" {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return listen
}

// Serve binds the listen address (":0" picks an ephemeral port; an empty
// host means loopback) and starts serving the registry. The caller owns
// the returned server and must Close it; Close is what guarantees the
// listener and the serving goroutine are gone.
func Serve(listen string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", localhostDefault(listen))
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", listen, err)
	}
	s := &Server{ln: ln, reg: reg, done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", s.serveVars)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// net/http/pprof registers on DefaultServeMux via init; wire its
	// handlers onto this mux explicitly so the endpoint is self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.mux = mux
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// serveVars renders expvar-style JSON: every expvar-published var (the
// runtime publishes memstats and cmdline) plus the registry under
// "semloc". Rendering by hand instead of expvar.Publish keeps multiple
// servers in one process (tests) from colliding on the global expvar
// namespace.
func (s *Server) serveVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var parts []string
	expvar.Do(func(kv expvar.KeyValue) {
		k, _ := json.Marshal(kv.Key)
		parts = append(parts, fmt.Sprintf("%s: %s", k, kv.Value.String()))
	})
	regJSON, err := json.Marshal(s.reg.ExpvarMap())
	if err != nil {
		regJSON = []byte("{}")
	}
	parts = append(parts, fmt.Sprintf("%q: %s", "semloc", regJSON))
	fmt.Fprintf(w, "{\n%s\n}\n", strings.Join(parts, ",\n"))
}

// Addr returns the bound address (host:port), useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers an additional handler on the server's mux (e.g.
// prefetchd's /debug/serve session-stats endpoint). http.ServeMux guards
// registration with its own lock, so late registration is safe, but the
// usual pattern is to register between Serve and the first request.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SetReady flips the /readyz state (the commands mark ready once their
// runner is constructed and jobs are submitted).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close shuts the server down gracefully (bounded wait for in-flight
// scrapes), then forcefully, and waits for the serving goroutine to exit —
// after Close returns, neither the listener nor the goroutine remains.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	<-s.done
	return err
}
