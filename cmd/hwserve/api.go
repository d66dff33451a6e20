package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"hwstar"
)

// serveAPI is server mode: one Server fronted by the multi-tenant /v1 API,
// with the debug endpoints on the same address, serving until ctx is
// cancelled. The server boots with a registered "facts" relation (for
// op=scan) and a "lineitem" table (for op=q1/q6) generated at cfg.Rows, so
// a fresh instance is immediately queryable.
func serveAPI(ctx context.Context, cfg Config, out io.Writer) error {
	if cfg.Shards > 1 {
		return serveAPICluster(ctx, cfg, out)
	}
	srv, _, st, err := buildServer(cfg)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
	}
	cols := [][]int64{
		hwstar.GenUniform(41, cfg.Rows, 100000),
		hwstar.GenUniform(42, cfg.Rows, 1000),
	}
	if st == nil {
		if err := srv.Register("facts", cols); err != nil {
			return err
		}
	}
	lineitem := hwstar.GenLineItem(46, cfg.Rows)

	fe, err := hwstar.NewFrontend(hwstar.FrontendConfig{
		Server:       srv,
		Tenants:      cfg.Tenants,
		SessionTTL:   time.Duration(cfg.SessionTTL),
		QueryTimeout: time.Duration(cfg.QueryTimeout),
		Lineitems:    map[string]*hwstar.Table{"lineitem": lineitem},
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", fe.Handler())
	debug := newDebugMux(srv.Metrics())
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)

	ln, err := net.Listen("tcp", cfg.ServeAPI)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hwserve: /v1 API on %s (%d tenants, tables: facts, lineitem; /metrics, /debug/pprof)\n",
		ln.Addr(), len(cfg.Tenants))

	if st != nil {
		// Cold start under load: the listener is already up, so while the
		// durable hot set replays /v1 answers 503 UNAVAILABLE_RECOVERING
		// (retryable, with Retry-After) instead of refusing connections.
		// Once admission opens, "facts" is (re)registered so a fresh data
		// directory is immediately queryable too.
		go func() {
			if err := srv.WaitRecovered(ctx); err != nil {
				return // shutting down before replay finished
			}
			if err := srv.Register("facts", cols); err != nil {
				fmt.Fprintf(out, "hwserve: register facts: %v\n", err)
				return
			}
			h := srv.Health()
			fmt.Fprintf(out, "hwserve: durable store %s ready (manifest v%d, %d tables replayed, %d hot)\n",
				cfg.DataDir, h.StoreVersion, h.Recovery.TablesTotal, h.Recovery.TablesHot)
		}()
	}

	hs := newHTTPServer(mux)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "hwserve: draining admitted work")
	return srv.Close()
}
