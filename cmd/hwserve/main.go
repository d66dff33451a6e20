// Command hwserve drives the hwstar concurrent query service in one of two
// modes:
//
//   - Load-generator mode (the default): start an engine on a machine
//     profile, fire a cohort of concurrent clients at it, and report what
//     the serving layer did — throughput, admission decisions, batch-size
//     distribution, and the modeled cycles each query paid.
//   - Server mode (-serve-api addr): mount the multi-tenant /v1 HTTP API
//     (sessions, per-tenant rate limits and quotas, priority classes; see
//     internal/frontend) plus the debug endpoints on addr and serve until
//     SIGINT/SIGTERM. Server mode needs at least one tenant, so it is
//     normally started from a config file.
//
// Either mode runs against one engine, assembled once by build: a single
// Server, or with -shards > 1 that many Servers behind a replicated Router.
//
// Configuration is one Config struct. Every field can be set from a JSON
// file (-config server.json) or from flags; flags set explicitly on the
// command line override file values, and -print-config dumps the effective
// configuration in the exact format -config accepts:
//
//	hwserve -print-config > server.json   # capture defaults
//	hwserve -config server.json           # run them
//	hwserve -config server.json -clients 128   # file + one override
//
// A minimal server-mode config:
//
//	{
//	  "serve_api": "127.0.0.1:8080",
//	  "tenants": [
//	    {"id": "alice", "key": "alice-key", "priority": "interactive"},
//	    {"id": "bob",   "key": "bob-key",   "priority": "batch",
//	     "rate_per_sec": 50, "burst": 10, "max_concurrent": 4}
//	  ]
//	}
//
// -listen mounts the observability endpoints for a load-generator run:
// Prometheus-text metrics on /metrics, expvar JSON on /debug/vars, and the
// standard pprof profiles on /debug/pprof/ (server mode serves them on the
// API address automatically). -trace-every n samples every nth request into
// a span tree dumped after the report.
//
// The default workload is all shared-scannable range aggregates; -mix mixed
// adds joins and grouped aggregations that exercise the worker budget.
//
// Shared scans run batch-at-a-time over FOR/RLE-compressed columns (zone-map
// pruning, precomputed block sums, decode-on-demand); the report's scan
// passes line breaks the passes down by block outcome.
//
// -mem-budget arms the memory governor: joins and grouped aggregations
// reserve against a server-wide byte budget at admission, charge their hash
// tables against it, and degrade to grace-hash spill plans when the grant
// runs out. -oom-kill switches the governor to the naive mode that allocates
// past the budget and then kills the query. -alloc-fail-prob injects
// allocation failures at the charge sites.
//
// The fault flags arm a seeded injector on the server (panics, transient
// failures, stragglers), and the resilience flags configure how the server
// absorbs them: morsel retry with exponential backoff, and panic isolation
// with straggler re-dispatch. A sharded run's router also routes around a
// failing node with its per-node breaker. SIGINT/SIGTERM stops the clients
// and drains admitted work through Server.Close before the final report
// prints.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hwstar"
	"hwstar/internal/hw"
)

// engine is what both modes drive: the surface the /v1 frontend fronts plus
// registration and shutdown. *hwstar.Server and *hwstar.Router satisfy it.
type engine interface {
	hwstar.FrontendBackend
	Register(name string, cols [][]int64) error
	Close() error
}

// backend is what build assembles: the engine, and beside it the handles
// only one topology has.
type backend struct {
	engine
	router *hwstar.Router  // the engine when sharded, else nil (chaos loop, cluster report)
	tracer *hwstar.Tracer  // nil unless -trace-every
	stores []*hwstar.Store // one per node; the caller closes them after the engine
}

func (b *backend) closeStores() {
	for _, st := range b.stores {
		st.Close()
	}
}

type report struct {
	completed, rejected, deadlined int64
	shed, failed                   int64
	partials                       int64
	memShed, oomKilled             int64
	elapsed                        time.Duration
	batches                        int
	batchP50, batchMax             float64
	meanMcyc                       float64 // per completed query
	queueDepth                     int
	interrupted                    bool
	health                         hwstar.ServerHealth
	traces                         []hwstar.TraceData
	tracesStarted, tracesDropped   uint64
	listenAddr                     string
	cluster                        *hwstar.ClusterHealth
}

// build assembles the engine both modes run against. The per-server options,
// memory governor, fault injector, tracer and durable stores are derived from
// cfg once; cfg.Shards only decides what wraps them — one Server over
// cfg.DataDir, or cfg.Shards of them behind a replicated Router (partition
// p on nodes p … p+Replicas−1), each over its own node-N subdirectory so a
// recovered node can re-replicate lost stripes from the surviving replicas'
// stores. Opening a store replays its committed state, so the engine
// returned serves it.
func build(ctx context.Context, cfg Config) (*backend, error) {
	m, ok := hw.Profiles()[cfg.Machine]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", cfg.Machine)
	}
	opts := hwstar.ServerOptions{
		QueueDepth:   cfg.Queue,
		MaxBatch:     cfg.MaxBatch,
		MaxRetries:   cfg.Retries,
		RetryBackoff: time.Duration(cfg.Backoff),
	}
	if cfg.MemBudget > 0 {
		opts.Memory = hwstar.MemoryConfig{
			BudgetBytes:   cfg.MemBudget,
			PerQueryBytes: cfg.MemQuery,
			KillOnOverage: cfg.OOMKill,
		}
	}
	var inj *hwstar.FaultInjector
	if cfg.faulty() || cfg.NodeLossProb > 0 {
		inj = hwstar.NewFaultInjector(hwstar.FaultConfig{
			Seed:          cfg.FaultSeed,
			PanicProb:     cfg.PanicProb,
			TransientProb: cfg.TransientProb,
			StragglerProb: cfg.StragglerProb,
			StragglerSkew: cfg.StragglerSkew,
			AllocFailProb: cfg.AllocFailProb,
			NodeLossProb:  cfg.NodeLossProb,
		})
	}
	if cfg.faulty() {
		opts.Faults = inj
		// Injected panics and stragglers are survivable only with isolation
		// and re-dispatch armed.
		opts.IsolatePanics = true
		opts.StragglerThreshold = 3
	}
	if cfg.DataDir != "" {
		opts.CheckpointInterval = time.Duration(cfg.CheckpointInterval)
	}
	b := &backend{}
	if cfg.TraceEvery > 0 {
		b.tracer = hwstar.NewTracer(hwstar.TraceConfig{Capacity: 16, SampleEvery: cfg.TraceEvery})
		opts.Trace = b.tracer
	}
	openStore := func(dir string) (*hwstar.Store, error) {
		st, err := hwstar.OpenStore(hwstar.StoreOptions{Dir: dir, Machine: m})
		if err == nil {
			b.stores = append(b.stores, st)
		}
		return st, err
	}
	fail := func(err error) (*backend, error) {
		b.closeStores()
		return nil, err
	}
	var err error
	if cfg.Shards <= 1 {
		if cfg.DataDir != "" {
			if opts.Store, err = openStore(cfg.DataDir); err != nil {
				return fail(err)
			}
		}
		srv, err := hwstar.NewServer(m, opts)
		if err != nil {
			return fail(err)
		}
		b.engine = srv
		return b, nil
	}
	ropts := hwstar.RouterOptions{Shards: cfg.Shards, Replicas: cfg.Replicas, Faults: inj}
	if cfg.MemBudget > 0 {
		// Federated budgets: the router admits against the cluster-wide
		// budget while each shard governs its even share.
		ropts.Memory = hwstar.MemoryConfig{BudgetBytes: cfg.MemBudget, PerQueryBytes: cfg.MemQuery}
		opts.Memory.BudgetBytes /= int64(cfg.Shards)
	}
	if cfg.DataDir != "" {
		for i := 0; i < cfg.Shards; i++ {
			if _, err := openStore(filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i))); err != nil {
				return fail(err)
			}
		}
	}
	ropts.Stores, ropts.Shard = b.stores, opts
	if b.router, err = hwstar.NewRouter(ctx, m, ropts); err != nil {
		return fail(err)
	}
	b.engine = b.router
	return b, nil
}

func run(ctx context.Context, cfg Config) (*report, error) {
	b, err := build(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer b.closeStores()
	var listenAddr string
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, err
		}
		listenAddr = ln.Addr().String()
		hs := newHTTPServer(newDebugMux(b.Metrics()))
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
	}
	cols := [][]int64{
		hwstar.GenUniform(41, cfg.Rows, 100000),
		hwstar.GenUniform(42, cfg.Rows, 1000),
	}
	if err := b.Register("facts", cols); err != nil {
		return nil, err
	}
	g := hwstar.GenJoin(43, 4096, 16384, 0)
	var joinReq hwstar.Request
	joinReq.Op = hwstar.OpJoin
	joinReq.Algorithm = "auto"
	joinReq.Join.BuildKeys, joinReq.Join.BuildVals = g.BuildKeys, g.BuildVals
	joinReq.Join.ProbeKeys, joinReq.Join.ProbeVals = g.ProbeKeys, g.ProbeVals
	aggKeys := hwstar.GenUniform(44, 65536, 1024)
	aggVals := hwstar.GenUniform(45, 65536, 100)

	stopChaos := startChaos(ctx, cfg, b.router)

	var completed, rejected, deadlined, shed, failed atomic.Int64
	var partials, memShed, oomKilled atomic.Int64
	cycles := make([]float64, cfg.Clients) // each client sums into its own slot
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < cfg.Requests; i++ {
				if ctx.Err() != nil {
					return // interrupted: stop submitting, let Close drain
				}
				req := hwstar.Request{
					Op:    hwstar.OpScan,
					Table: "facts",
					Query: hwstar.ScanQuery{FilterCol: 0, Lo: int64(rng.Intn(90000)), AggCol: 1},
				}
				req.Query.Hi = req.Query.Lo + 5000
				if cfg.Mix == "mixed" {
					switch rng.Intn(4) {
					case 1:
						req = joinReq
					case 2:
						req = hwstar.Request{Op: hwstar.OpGroupSum, Keys: aggKeys, Vals: aggVals, Strategy: hwstar.AggRadix}
					}
				}
				reqCtx := ctx
				cancel := func() {}
				if cfg.Deadline > 0 {
					reqCtx, cancel = context.WithTimeout(reqCtx, time.Duration(cfg.Deadline))
				}
				resp, err := b.Submit(reqCtx, req)
				cancel()
				switch {
				case err == nil:
					completed.Add(1)
					cycles[c] += resp.SimCycles
				case errors.Is(err, hwstar.ErrPartialResult):
					// The flagged answer is usable and exact over the
					// covered fraction; count it apart from failures.
					partials.Add(1)
				case errors.Is(err, hwstar.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, hwstar.ErrDegraded):
					shed.Add(1)
				case errors.Is(err, hwstar.ErrOOMKilled):
					oomKilled.Add(1)
				case errors.Is(err, hwstar.ErrMemoryPressure):
					memShed.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					deadlined.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	bs := b.Metrics().Histogram("serve.batch_size")
	if b.router != nil {
		bs = b.router.Histogram("serve.batch_size")
	}
	r := &report{
		completed: completed.Load(), rejected: rejected.Load(), deadlined: deadlined.Load(),
		shed: shed.Load(), failed: failed.Load(), partials: partials.Load(),
		memShed: memShed.Load(), oomKilled: oomKilled.Load(),
		elapsed:  elapsed,
		batches:  bs.Count(),
		batchP50: bs.Quantile(0.5), batchMax: bs.Max(),
		queueDepth:  cfg.Queue,
		interrupted: ctx.Err() != nil,
	}
	if r.completed > 0 {
		var total float64
		for _, v := range cycles {
			total += v
		}
		r.meanMcyc = total / float64(r.completed) / 1e6
	}
	stopChaos()
	r.health = b.Health()
	r.listenAddr = listenAddr
	if b.router != nil {
		ch := b.router.ClusterHealth()
		r.cluster = &ch
	}
	if b.tracer != nil {
		r.traces = b.tracer.Snapshot()
		r.tracesStarted, r.tracesDropped = b.tracer.Started()
	}
	if err := b.Close(); err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		// Close flushed a final checkpoint; re-read health so the report
		// shows the manifest version the run actually left on disk.
		r.health = b.Health()
	}
	return r, nil
}

func (r *report) print(w io.Writer, cfg Config) {
	total := int64(cfg.Clients) * int64(cfg.Requests)
	fmt.Fprintf(w, "%d clients x %d requests on %s (%s mix)\n", cfg.Clients, cfg.Requests, cfg.Machine, cfg.Mix)
	if r.interrupted {
		fmt.Fprintf(w, "  interrupted: clients stopped, admitted work drained\n")
	}
	fmt.Fprintf(w, "  completed %d / %d  (rejected %d, missed deadline %d, shed %d, failed %d)\n",
		r.completed, total, r.rejected, r.deadlined, r.shed, r.failed)
	if r.cluster != nil {
		ch := r.cluster
		fmt.Fprintf(w, "  cluster %d shards x %d replicas  (node losses %d, failovers %d, hedges %d/%d won, partial answers %d, re-replications %d)\n",
			ch.Shards, ch.Replicas, ch.NodeLosses, ch.Failovers, ch.HedgeWins, ch.Hedges, r.partials, ch.Rereplications)
	}
	fmt.Fprintf(w, "  wall time %.2fs  (%.0f req/s)\n", r.elapsed.Seconds(), float64(r.completed)/r.elapsed.Seconds())
	if r.batches > 0 {
		fmt.Fprintf(w, "  scan batches %d  (p50 size %.0f, max %.0f)\n", r.batches, r.batchP50, r.batchMax)
	}
	fmt.Fprintf(w, "  modeled cost %.2f Mcycles/query (amortized over shared scans)\n", r.meanMcyc)
	if cfg.MemBudget > 0 {
		h := r.health
		fmt.Fprintf(w, "  memory budget %d KiB  (peak %d KiB, shed at admission %d, spilled %d for %d KiB, oom kills %d)\n",
			cfg.MemBudget>>10, h.Memory.PeakBytes>>10, r.memShed, h.Spills, h.SpillBytes>>10, r.oomKilled)
	}
	if h := r.health; h.VecPasses > 0 {
		fmt.Fprintf(w, "  scan passes %d  (blocks: %d pruned, %d fast-summed, %d scanned)\n",
			h.VecPasses, h.VecBlocksPruned, h.VecFastSums, h.VecBlocksScanned)
	}
	if cfg.faulty() {
		h := r.health
		fmt.Fprintf(w, "  health %s  (retries %d, exhausted %d, panics recovered %d, re-dispatched %d, stragglers retired %d)\n",
			h.State, h.Retries, h.RetryExhausted, h.PanicsRecovered, h.Redispatched, h.StragglersRetired)
		classes := make([]string, 0, len(h.Faults))
		for c := range h.Faults {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "  faults injected:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, h.Faults[c])
		}
		fmt.Fprintln(w)
	}
	if cfg.DataDir != "" {
		h := r.health
		fmt.Fprintf(w, "  durable store %s  (manifest v%d, recovered %d tables, checkpoints %d)\n",
			cfg.DataDir, h.StoreVersion, h.Recovery.TablesTotal, h.Checkpoints)
	}
	if r.listenAddr != "" {
		fmt.Fprintf(w, "  debug endpoints served on %s (/metrics, /debug/vars, /debug/pprof)\n", r.listenAddr)
	}
	if r.tracesStarted > 0 {
		fmt.Fprintf(w, "  traced %d requests (%d spans dropped); span trees of the last %d:\n",
			r.tracesStarted, r.tracesDropped, min(len(r.traces), 3))
		for _, td := range r.traces[max(0, len(r.traces)-3):] {
			fmt.Fprint(w, td.Render())
		}
	}
}

func main() {
	cfg, printOnly, err := parseConfig(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if printOnly {
		if err := cfg.Print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM stops the client cohort (or the API server); admitted
	// work still drains through Server.Close before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.ServeAPI != "" {
		if err := serveAPI(ctx, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	r, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r.print(os.Stdout, cfg)
}
