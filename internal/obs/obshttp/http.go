// Package obshttp exposes an obs.Registry over HTTP: Prometheus text
// format on /metrics, a JSON snapshot on /metricsz, and the standard
// net/http/pprof profiling endpoints under /debug/pprof/. It lives in a
// subpackage so the obs core stays free of net/http and can be imported
// from the zero-alloc inference path without dragging in the server
// stack.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"dsgl/internal/obs"
)

// Handler returns the observability mux for r. The registry may be nil
// (endpoints respond with empty bodies / empty snapshots), so the
// handler can be mounted before observability is enabled.
func Handler(r *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap := r.Snapshot()
		if snap == nil {
			snap = []obs.MetricSnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "dsgl observability\n\n/metrics   Prometheus text format\n/metricsz  JSON snapshot\n/debug/pprof/  profiling\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a client that stalls mid-header cannot hold a connection
// open forever. There is no read or write timeout: a CPU profile or an
// execution trace legitimately streams for as long as it was asked to.
const readHeaderTimeout = 5 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests before the server closes it; a scraper that comes back later
// simply reconnects.
const idleTimeout = 2 * time.Minute

// newServer is the observability http.Server for h, with the header and
// idle timeouts set.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Serve listens on addr (e.g. ":9137" or "127.0.0.1:0") and serves
// Handler(r) in a background goroutine. It returns the bound address
// (useful with port 0) and a shutdown func. The server is best-effort
// diagnostics: serve errors after a successful bind are dropped.
func Serve(addr string, r *obs.Registry) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs listen %s: %w", addr, err)
	}
	srv := newServer(Handler(r))
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
