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

// serveAPI is server mode: the engine build returns — one Server or a
// sharded Router, the wire protocol never learns which — fronted by the
// multi-tenant /v1 API, with the debug endpoints on the same address,
// serving until ctx is cancelled. The engine boots with a registered "facts"
// relation (for op=scan) and a "lineitem" table (for op=q1/q6) generated at
// cfg.Rows, so a fresh instance is immediately queryable. Behind a Router
// total replica loss surfaces as partial=true responses instead of errors.
func serveAPI(ctx context.Context, cfg Config, out io.Writer) error {
	b, err := build(ctx, cfg)
	if err != nil {
		return err
	}
	defer b.closeStores()
	cols := [][]int64{
		hwstar.GenUniform(41, cfg.Rows, 100000),
		hwstar.GenUniform(42, cfg.Rows, 1000),
	}
	if err := b.Register("facts", cols); err != nil {
		return err
	}
	lineitem := hwstar.GenLineItem(46, cfg.Rows)

	fe, err := hwstar.NewFrontend(hwstar.FrontendConfig{
		Backend:      b.engine,
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
	debug := newDebugMux(b.Metrics())
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)

	ln, err := net.Listen("tcp", cfg.ServeAPI)
	if err != nil {
		return err
	}
	if b.router != nil {
		fmt.Fprintf(out, "hwserve: /v1 API on %s (%d shards x %d replicas, %d tenants, tables: facts, lineitem)\n",
			ln.Addr(), cfg.Shards, b.router.ClusterHealth().Replicas, len(cfg.Tenants))
	} else {
		fmt.Fprintf(out, "hwserve: /v1 API on %s (%d tenants, tables: facts, lineitem; /metrics, /debug/pprof)\n",
			ln.Addr(), len(cfg.Tenants))
	}

	if cfg.DataDir != "" {
		h := b.Health()
		fmt.Fprintf(out, "hwserve: durable store %s ready (manifest v%d, %d tables replayed)\n",
			cfg.DataDir, h.StoreVersion, h.Recovery.TablesTotal)
	}
	stopChaos := startChaos(ctx, cfg, b.router)

	hs := newHTTPServer(mux)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()
	err = hs.Serve(ln)
	kills, chaos := stopChaos()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if chaos {
		ch := b.router.ClusterHealth()
		fmt.Fprintf(out, "hwserve: chaos killed %d nodes (failovers %d, hedges %d, partials %d, re-replications %d)\n",
			kills, ch.Failovers, ch.Hedges, ch.Partials, ch.Rereplications)
	}
	fmt.Fprintln(out, "hwserve: draining admitted work")
	return b.Close()
}
