// Command hwserve drives the hwstar concurrent query service in one of two
// modes:
//
//   - Load-generator mode (the default): start a Server on a machine
//     profile, fire a cohort of concurrent clients at it, and report what
//     the serving layer did — throughput, admission decisions, batch-size
//     distribution, and the modeled cycles each query paid.
//   - Server mode (-serve-api addr): mount the multi-tenant /v1 HTTP API
//     (sessions, per-tenant rate limits and quotas, priority classes; see
//     internal/frontend) plus the debug endpoints on addr and serve until
//     SIGINT/SIGTERM. Server mode needs at least one tenant, so it is
//     normally started from a config file.
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
// The pre-Config flag names (-maxbatch, -trace) remain as aliases for one
// release; prefer -max-batch and -trace-every.
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
// absorbs them: morsel retry with exponential backoff, panic isolation with
// straggler re-dispatch, and a circuit breaker that sheds load after
// consecutive failures. SIGINT/SIGTERM stops the clients and drains admitted
// work through Server.Close before the final report prints.
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
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hwstar"
	"hwstar/internal/hw"
	"hwstar/internal/metrics"
)

// engine is the surface the load loop drives — a single *hwstar.Server or,
// with -shards > 1, a replicated *hwstar.Router. Both speak it verbatim.
type engine interface {
	Register(name string, cols [][]int64) error
	Submit(ctx context.Context, req hwstar.Request) (hwstar.Response, error)
	Metrics() *metrics.Registry
	Health() hwstar.ServerHealth
	Close() error
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
	chaosKills                     int
}

// buildServer assembles the Server (and optional Tracer and durable Store)
// both modes share. When cfg.DataDir is set the store is opened — replaying
// any committed state — before the server boots on top of it; the caller
// owns the returned store and must close it after Server.Close.
func buildServer(cfg Config) (*hwstar.Server, *hwstar.Tracer, *hwstar.Store, error) {
	m, ok := hw.Profiles()[cfg.Machine]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown machine %q", cfg.Machine)
	}
	opts := hwstar.ServerOptions{
		QueueDepth:       cfg.Queue,
		MaxBatch:         cfg.MaxBatch,
		BatchWindow:      time.Duration(cfg.Window),
		MaxRetries:       cfg.Retries,
		RetryBackoff:     time.Duration(cfg.Backoff),
		BreakerThreshold: cfg.Breaker,
		BreakerCooldown:  time.Duration(cfg.Cooldown),
	}
	if cfg.MemBudget > 0 {
		opts.Memory = hwstar.MemoryConfig{
			BudgetBytes:   cfg.MemBudget,
			PerQueryBytes: cfg.MemQuery,
			KillOnOverage: cfg.OOMKill,
		}
	}
	if cfg.faulty() {
		opts.Faults = hwstar.NewFaultInjector(hwstar.FaultConfig{
			Seed:          cfg.FaultSeed,
			PanicProb:     cfg.PanicProb,
			TransientProb: cfg.TransientProb,
			StragglerProb: cfg.StragglerProb,
			StragglerSkew: cfg.StragglerSkew,
			AllocFailProb: cfg.AllocFailProb,
		})
		// Injected panics and stragglers are survivable only with isolation
		// and re-dispatch armed.
		opts.IsolatePanics = true
		opts.StragglerThreshold = 3
	}
	var tracer *hwstar.Tracer
	if cfg.TraceEvery > 0 {
		tracer = hwstar.NewTracer(hwstar.TraceConfig{Capacity: 16, SampleEvery: cfg.TraceEvery})
		opts.Trace = tracer
	}
	var st *hwstar.Store
	if cfg.DataDir != "" {
		var err error
		st, err = hwstar.OpenStore(hwstar.StoreOptions{
			Dir:      cfg.DataDir,
			Machine:  m,
			HotBytes: cfg.HotBytes,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		opts.Store = st
		opts.CheckpointInterval = time.Duration(cfg.CheckpointInterval)
	}
	srv, err := hwstar.NewServer(m, opts)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, nil, nil, err
	}
	return srv, tracer, st, nil
}

func run(ctx context.Context, cfg Config) (*report, error) {
	var (
		eng    engine
		router *hwstar.Router
		tracer *hwstar.Tracer
		st     *hwstar.Store
	)
	if cfg.Shards > 1 {
		rt, tr, stores, err := buildRouter(ctx, cfg)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, s := range stores {
				s.Close()
			}
		}()
		eng, router, tracer = rt, rt, tr
	} else {
		srv, tr, store, err := buildServer(cfg)
		if err != nil {
			return nil, err
		}
		st = store
		if st != nil {
			defer st.Close()
			// Load generation starts against a fully replayed hot set; the
			// cold-start-under-load path is server mode's (see serveAPI).
			if err := srv.WaitRecovered(ctx); err != nil {
				return nil, err
			}
		}
		eng, tracer = srv, tr
	}
	var listenAddr string
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, err
		}
		listenAddr = ln.Addr().String()
		hs := newHTTPServer(newDebugMux(eng.Metrics()))
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
	}
	cols := [][]int64{
		hwstar.GenUniform(41, cfg.Rows, 100000),
		hwstar.GenUniform(42, cfg.Rows, 1000),
	}
	if err := eng.Register("facts", cols); err != nil {
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

	var chaosStop chan struct{}
	chaosKills := make(chan int, 1)
	if router != nil && cfg.NodeLossProb > 0 {
		chaosStop = make(chan struct{})
		go func() { chaosKills <- runChaos(ctx, router, chaosStop) }()
	}

	var completed, rejected, deadlined, shed, failed atomic.Int64
	var partials, memShed, oomKilled atomic.Int64
	var cycles atomicFloat
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
				resp, err := eng.Submit(reqCtx, req)
				cancel()
				switch {
				case err == nil:
					completed.Add(1)
					cycles.add(resp.SimCycles)
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
	bs := eng.Metrics().Histogram("serve.batch_size")
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
		r.meanMcyc = cycles.load() / float64(r.completed) / 1e6
	}
	if chaosStop != nil {
		close(chaosStop)
		r.chaosKills = <-chaosKills
	}
	r.health = eng.Health()
	r.listenAddr = listenAddr
	if router != nil {
		ch := router.ClusterHealth()
		r.cluster = &ch
	}
	if tracer != nil {
		r.traces = tracer.Snapshot()
		r.tracesStarted, r.tracesDropped = tracer.Started()
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if st != nil {
		// Close flushed a final checkpoint; re-read health so the report
		// shows the manifest version the run actually left on disk.
		r.health = eng.Health()
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
		fmt.Fprintf(w, "  health %s  (retries %d, exhausted %d, panics recovered %d, re-dispatched %d, stragglers retired %d, breaker trips %d)\n",
			h.State, h.Retries, h.RetryExhausted, h.PanicsRecovered, h.Redispatched, h.StragglersRetired, h.BreakerTrips)
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
		fmt.Fprintf(w, "  durable store %s  (manifest v%d, recovered %d tables / %d hot, checkpoints %d, cold loads %d)\n",
			cfg.DataDir, h.StoreVersion, h.Recovery.TablesTotal, h.Recovery.TablesHot, h.Checkpoints, h.ColdLoads)
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

// atomicFloat accumulates float64 samples without a mutex on the hot path.
type atomicFloat struct {
	mu  sync.Mutex
	sum float64
}

func (a *atomicFloat) add(v float64) { a.mu.Lock(); a.sum += v; a.mu.Unlock() }
func (a *atomicFloat) load() float64 { a.mu.Lock(); defer a.mu.Unlock(); return a.sum }

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
