package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the telemetry HTTP handler:
//
//	/          live HTML dashboard (stat tiles + sparklines, polling /live)
//	/live      JSON LiveFrame of reg and prog, read afresh on every GET
//	/metrics   Prometheus text exposition of reg
//	/healthz   liveness probe ("ok")
//	/progress  JSON ProgressSnapshot of prog
//	/debug/pprof/...  the standard runtime profiler endpoints
//
// reg and prog may each be nil (the endpoints then serve an empty exposition
// and the zero snapshot). Handlers only read atomics, so scraping never
// perturbs a running simulation, and they keep no state between requests.
func Handler(reg *Registry, prog *Progress) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHTML))
	})
	mux.HandleFunc("/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(ReadLive(reg, prog))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(prog.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry HTTP server (see StartServer).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr (host:port; port 0 picks a free one) and
// serves Handler(reg, prog) on a background goroutine. The returned Server
// reports the bound address and shuts the listener down on Close.
func StartServer(addr string, reg *Registry, prog *Progress) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, prog), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed (and the listener-closed error on Close) is the
		// normal shutdown path; an abnormal serve error has nowhere better
		// to go than being dropped — the sim must not die for telemetry.
		_ = srv.Serve(ln)
	}()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the server's bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
