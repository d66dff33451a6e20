package main

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hwstar/internal/metrics"
)

// newHTTPServer wraps h in an http.Server with the listener timeouts every
// address the binary opens shares (-listen, -serve-api in either mode): a
// peer that stalls mid-header, mid-body or mid-response, or parks an idle
// keep-alive connection, loses the connection instead of holding a goroutine
// and a descriptor for good. The write bound sits above pprof's default 30 s
// CPU profile, which the handler refuses to start under a shorter one.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// debugReg holds the registry the debug endpoints read. A process-wide slot
// (rather than a closure) lets expvar publication happen exactly once even
// though tests build many muxes for many servers.
var (
	debugReg    atomic.Pointer[metrics.Registry]
	publishOnce sync.Once
)

// newDebugMux builds the observability endpoint set for one server:
//
//	/metrics       — Prometheus text exposition of the server's registry
//	/debug/vars    — expvar JSON (Go runtime stats plus the "hwserve" map)
//	/debug/pprof/  — the standard pprof profile handlers
//
// The mux is plain net/http, so tests drive it with httptest and the binary
// mounts it on -listen.
func newDebugMux(reg *metrics.Registry) *http.ServeMux {
	debugReg.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("hwserve", expvar.Func(func() any {
			r := debugReg.Load()
			if r == nil {
				return nil
			}
			snap := r.Snapshot()
			return map[string]any{"counters": snap.Counters, "gauges": snap.Gauges}
		}))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
