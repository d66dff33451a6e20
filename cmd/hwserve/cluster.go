package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"hwstar"
	"hwstar/internal/hw"
)

// buildRouter assembles the sharded serving tier (-shards > 1): cfg.Shards
// serve shards, each configured exactly like buildServer's single engine,
// behind a replicated consistent-hash router. With -data-dir every node
// owns a node-N subdirectory, so a recovered node can re-replicate lost
// stripes from the surviving replicas' durable stores. The caller closes
// the returned stores after Router.Close.
func buildRouter(ctx context.Context, cfg Config) (*hwstar.Router, *hwstar.Tracer, []*hwstar.Store, error) {
	m, ok := hw.Profiles()[cfg.Machine]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown machine %q", cfg.Machine)
	}
	shardOpts := hwstar.ServerOptions{
		QueueDepth:       cfg.Queue,
		MaxBatch:         cfg.MaxBatch,
		BatchWindow:      time.Duration(cfg.Window),
		MaxRetries:       cfg.Retries,
		RetryBackoff:     time.Duration(cfg.Backoff),
		BreakerThreshold: cfg.Breaker,
		BreakerCooldown:  time.Duration(cfg.Cooldown),
	}
	ropts := hwstar.RouterOptions{
		Shards:   cfg.Shards,
		Replicas: cfg.Replicas,
	}
	if cfg.MemBudget > 0 {
		// Federated budgets: the router admits against the cluster-wide
		// budget while each shard governs its even share.
		ropts.Memory = hwstar.MemoryConfig{BudgetBytes: cfg.MemBudget, PerQueryBytes: cfg.MemQuery}
		shardOpts.Memory = hwstar.MemoryConfig{
			BudgetBytes:   cfg.MemBudget / int64(cfg.Shards),
			PerQueryBytes: cfg.MemQuery,
			KillOnOverage: cfg.OOMKill,
		}
	}
	if cfg.faulty() || cfg.NodeLossProb > 0 {
		inj := hwstar.NewFaultInjector(hwstar.FaultConfig{
			Seed:          cfg.FaultSeed,
			PanicProb:     cfg.PanicProb,
			TransientProb: cfg.TransientProb,
			StragglerProb: cfg.StragglerProb,
			StragglerSkew: cfg.StragglerSkew,
			AllocFailProb: cfg.AllocFailProb,
			NodeLossProb:  cfg.NodeLossProb,
		})
		ropts.Faults = inj
		if cfg.faulty() {
			shardOpts.Faults = inj
			shardOpts.IsolatePanics = true
			shardOpts.StragglerThreshold = 3
		}
	}
	var tracer *hwstar.Tracer
	if cfg.TraceEvery > 0 {
		tracer = hwstar.NewTracer(hwstar.TraceConfig{Capacity: 16, SampleEvery: cfg.TraceEvery})
		shardOpts.Trace = tracer
	}
	var stores []*hwstar.Store
	closeStores := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	if cfg.DataDir != "" {
		for i := 0; i < cfg.Shards; i++ {
			st, err := hwstar.OpenStore(hwstar.StoreOptions{
				Dir:      filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i)),
				Machine:  m,
				HotBytes: cfg.HotBytes,
			})
			if err != nil {
				closeStores()
				return nil, nil, nil, err
			}
			stores = append(stores, st)
		}
		ropts.Stores = stores
	}
	ropts.Shard = shardOpts
	r, err := hwstar.NewRouter(ctx, m, ropts)
	if err != nil {
		closeStores()
		return nil, nil, nil, err
	}
	return r, tracer, stores, nil
}

// runChaos drives the router's seeded kill/recover loop until stop closes:
// each tick first revives every dead node (re-replicating its lost stripes
// from the surviving replicas), then draws fresh kills. Returns the total
// kill count.
func runChaos(ctx context.Context, r *hwstar.Router, stop <-chan struct{}) int {
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	kills := 0
	for {
		select {
		case <-ctx.Done():
			return kills
		case <-stop:
			return kills
		case <-ticker.C:
			for _, nh := range r.ClusterHealth().Nodes {
				if !nh.Alive {
					if err := r.RecoverNode(ctx, nh.ID); err != nil {
						return kills
					}
				}
			}
			kills += len(r.ChaosTick(ctx))
		}
	}
}

// serveAPICluster is server mode behind a sharded tier: the same /v1 API
// and debug endpoints as serveAPI, fronting a Router instead of a single
// Server. The wire protocol is identical; the only visible difference is
// that total replica loss surfaces as partial=true responses instead of
// errors.
func serveAPICluster(ctx context.Context, cfg Config, out io.Writer) error {
	router, _, stores, err := buildRouter(ctx, cfg)
	if err != nil {
		return err
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	cols := [][]int64{
		hwstar.GenUniform(41, cfg.Rows, 100000),
		hwstar.GenUniform(42, cfg.Rows, 1000),
	}
	if err := router.Register("facts", cols); err != nil {
		return err
	}
	lineitem := hwstar.GenLineItem(46, cfg.Rows)

	fe, err := hwstar.NewFrontend(hwstar.FrontendConfig{
		Backend:      router,
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
	debug := newDebugMux(router.Metrics())
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)

	ln, err := net.Listen("tcp", cfg.ServeAPI)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hwserve: /v1 API on %s (%d shards x %d replicas, %d tenants, tables: facts, lineitem)\n",
		ln.Addr(), cfg.Shards, router.ClusterHealth().Replicas, len(cfg.Tenants))

	chaosStop := make(chan struct{})
	chaosKills := make(chan int, 1)
	if cfg.NodeLossProb > 0 {
		go func() { chaosKills <- runChaos(ctx, router, chaosStop) }()
	} else {
		close(chaosKills)
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
	close(chaosStop)
	if kills, ok := <-chaosKills; ok {
		ch := router.ClusterHealth()
		fmt.Fprintf(out, "hwserve: chaos killed %d nodes (failovers %d, hedges %d, partials %d, re-replications %d)\n",
			kills, ch.Failovers, ch.Hedges, ch.Partials, ch.Rereplications)
	}
	fmt.Fprintln(out, "hwserve: draining admitted work")
	return router.Close()
}
