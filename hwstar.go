// Package hwstar is a hardware-conscious main-memory data processing engine
// built as an executable reproduction of Gustavo Alonso's ICDE 2013 keynote
// "Hardware killed the software star". The keynote argues that data
// processing software can no longer ignore the machine it runs on; this
// library makes each of the keynote's claims operational:
//
//   - joins and aggregations engineered for caches, TLBs, and NUMA, next to
//     their hardware-oblivious baselines (internal/join, internal/agg);
//   - vectorized and fused execution next to a Volcano interpreter
//     (internal/vecexec, internal/volcano, internal/queries);
//   - shared clock scans for concurrent analytics (internal/scan);
//   - NSM/DSM/PAX storage layouts with a cost-based advisor (internal/layout);
//   - a morsel-driven NUMA-aware scheduler (internal/sched);
//   - models for accelerator offload, virtualization interference, and
//     DVFS energy policies (internal/accel, internal/vmsim, internal/energy);
//   - and the substrates that make hardware effects measurable anywhere: a
//     parameterized machine cost model (internal/hw) and a trace-driven
//     cache/TLB simulator (internal/cache).
//
// This package is the public façade: an Engine bound to a machine profile,
// with high-level, context-first operations that return both real results and
// modeled hardware costs, and a Server that multiplexes concurrent clients
// onto the engine with shared-scan batching, admission control, and
// memory-budget governance with graceful spill, and a durable storage tier
// (checkpointed segments, crash recovery) via OpenStore. The E1–E26
// experiment suite (internal/experiments, cmd/hwbench) reproduces the
// behaviour the hardware-conscious database literature reports, on any host,
// deterministically.
//
// All Engine operations take a context.Context as their first parameter.
// Cancellation is cooperative: parallel operations check the context at every
// morsel boundary, so a cancelled context aborts within one morsel's worth of
// work and returns an error wrapping the context's error.
package hwstar

import (
	"context"
	"fmt"

	"hwstar/internal/agg"
	"hwstar/internal/bench"
	"hwstar/internal/errs"
	"hwstar/internal/experiments"
	"hwstar/internal/fault"
	"hwstar/internal/frontend"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/layout"
	"hwstar/internal/mem"
	"hwstar/internal/planner"
	"hwstar/internal/queries"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
	"hwstar/internal/serve"
	"hwstar/internal/shard"
	"hwstar/internal/store"
	"hwstar/internal/table"
	"hwstar/internal/trace"
	"hwstar/internal/vecexec"
	"hwstar/internal/workload"
)

// Sentinel errors. All validation and lifecycle failures across the façade
// and the server wrap one of these, so callers can classify failures with
// errors.Is regardless of the message text.
var (
	// ErrNilMachine reports a nil machine profile.
	ErrNilMachine = errs.ErrNilMachine
	// ErrWorkersOutOfRange reports a worker count outside 1..TotalCores.
	ErrWorkersOutOfRange = errs.ErrWorkersOutOfRange
	// ErrInvalidInput reports malformed operation input (mismatched slice
	// lengths, unknown algorithm or strategy names, out-of-range columns).
	ErrInvalidInput = errs.ErrInvalidInput
	// ErrOverloaded reports that a Server's intake queue is full.
	ErrOverloaded = errs.ErrOverloaded
	// ErrClosed reports an operation on a closed Server.
	ErrClosed = errs.ErrClosed
	// ErrWorkerPanic reports a recovered task panic that the run could not
	// absorb (stack attached to the wrapping error).
	ErrWorkerPanic = errs.ErrWorkerPanic
	// ErrTransient reports a retryable morsel-level failure that survived
	// the server's retry budget.
	ErrTransient = errs.ErrTransient
	// ErrDegraded reports a request shed because the Server's circuit
	// breaker is open.
	ErrDegraded = errs.ErrDegraded
	// ErrMemoryPressure reports a request shed at admission or an
	// allocation denied because the Server's memory budget is exhausted.
	// Retryable: pressure subsides as running queries release their
	// reservations.
	ErrMemoryPressure = errs.ErrMemoryPressure
	// ErrOOMKilled reports a simulated OOM kill: an ungoverned engine
	// (MemoryConfig.KillOnOverage) allocated past its budget. Fatal, not
	// retryable.
	ErrOOMKilled = errs.ErrOOMKilled
	// ErrCorrupted reports durable state that failed validation: a segment
	// or manifest whose checksum does not match its payload. Not retryable;
	// recovery falls back to the last manifest version that validates.
	ErrCorrupted = errs.ErrCorrupted
	// ErrPartialResult reports a sharded query that could not reach every
	// replica of some range: the returned Response is exact over
	// CoveredFraction of the rows and flagged Partial, never a silent wrong
	// total. Retryable once the lost ranges re-replicate.
	ErrPartialResult = errs.ErrPartialResult
)

// Cost is the modeled hardware cost shared by every result type: simulated
// cycles on the engine's machine profile. For parallel operations SimCycles
// is the scheduled makespan; for single-threaded query plans it is the
// accounted total; for batched server execution it is the amortized
// per-query share of the batch.
type Cost = hw.Cost

// Re-exported core types. The aliases are identical to the internal types,
// so values flow freely between the façade and the sub-packages.
type (
	// Machine is a hardware profile: topology, caches, memory system.
	Machine = hw.Machine
	// Work describes code behaviour in hardware terms for the cost model.
	Work = hw.Work
	// ExecContext states the conditions work executes under.
	ExecContext = hw.ExecContext
	// Table is an immutable columnar relation.
	Table = table.Table
	// Schema describes a table's columns.
	Schema = table.Schema
	// ScanQuery is a range-filter aggregation for shared scans.
	ScanQuery = scan.Query
	// LayoutKind identifies a storage layout (NSM/DSM/PAX).
	LayoutKind = layout.Kind
	// AccessProfile characterizes a workload for the layout advisor.
	AccessProfile = layout.AccessProfile
	// AggStrategy names a parallel aggregation design.
	AggStrategy = agg.Strategy
	// ResultTable is a rendered experiment result.
	ResultTable = bench.Table
)

// Machine profiles (see internal/hw for parameters).
var (
	// Laptop is a 1-socket 4-core client profile.
	Laptop = hw.Laptop
	// Server2S is a 2-socket 8-core NUMA server profile.
	Server2S = hw.Server2S
	// NUMA4S is a 4-socket 16-core NUMA machine profile.
	NUMA4S = hw.NUMA4S
	// Manycore is a 1-socket 64-core bandwidth-limited profile.
	Manycore = hw.Manycore
)

// Layout kinds.
const (
	NSM = layout.NSM
	DSM = layout.DSM
	PAX = layout.PAX
)

// Aggregation strategies.
const (
	AggGlobalAtomic AggStrategy = agg.StrategyGlobal
	AggLocalMerge   AggStrategy = agg.StrategyLocalMerge
	AggRadix        AggStrategy = agg.StrategyRadix
)

// Engine binds the hwstar operators to one machine profile and a worker
// configuration. An Engine is cheap to create and safe to use from one
// goroutine; create one per concurrent client.
type Engine struct {
	machine  *Machine
	workers  int
	stealing bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the number of simulated cores parallel operations use
// (default: all cores of the machine).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithoutStealing disables cross-socket work stealing (default: enabled).
func WithoutStealing() Option { return func(e *Engine) { e.stealing = false } }

// New creates an Engine on the given machine profile.
func New(m *Machine, opts ...Option) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("hwstar: %w", ErrNilMachine)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{machine: m, workers: m.TotalCores(), stealing: true}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 || e.workers > m.TotalCores() {
		return nil, fmt.Errorf("hwstar: worker count %d not in 1..%d: %w", e.workers, m.TotalCores(), ErrWorkersOutOfRange)
	}
	return e, nil
}

// Machine returns the engine's hardware profile.
func (e *Engine) Machine() *Machine { return e.machine }

// Workers returns the engine's simulated core count.
func (e *Engine) Workers() int { return e.workers }

// scheduler builds a fresh scheduler for one parallel operation.
func (e *Engine) scheduler() (*sched.Scheduler, error) {
	return sched.New(e.machine, sched.Options{Workers: e.workers, Stealing: e.stealing})
}

// JoinAlgorithm selects a join implementation.
type JoinAlgorithm string

// Join algorithms.
const (
	JoinAuto  JoinAlgorithm = "auto"  // radix when the build side exceeds the LLC, else NPO
	JoinNPO   JoinAlgorithm = "npo"   // no-partitioning hash join
	JoinRadix JoinAlgorithm = "radix" // parallel radix-partitioned hash join
)

// JoinResult reports an equi-join outcome.
type JoinResult struct {
	// Cost carries SimCycles, the simulated parallel makespan.
	Cost
	// Matches and Checksum aggregate the join output.
	Matches  int64
	Checksum uint64
	// Algorithm is the implementation that ran (resolved for JoinAuto).
	Algorithm JoinAlgorithm
}

// HashJoin joins build (unique or duplicate keys, with payloads) against
// probe, in parallel on the engine's simulated cores. Cancelling ctx aborts
// at the next morsel boundary.
func (e *Engine) HashJoin(ctx context.Context, buildKeys, buildVals, probeKeys, probeVals []int64, algo JoinAlgorithm) (JoinResult, error) {
	in := join.Input{BuildKeys: buildKeys, BuildVals: buildVals, ProbeKeys: probeKeys, ProbeVals: probeVals}
	if err := in.Validate(); err != nil {
		return JoinResult{}, err
	}
	if algo == JoinAuto || algo == "" {
		algo = JoinAlgorithm(join.AutoAlgorithm(e.machine, len(buildKeys)))
	}
	s, err := e.scheduler()
	if err != nil {
		return JoinResult{}, err
	}
	var res join.ParallelResult
	switch algo {
	case JoinNPO:
		res, err = join.ParallelNPO(ctx, in, s, 0)
	case JoinRadix:
		res, err = join.ParallelRadix(ctx, in, join.RadixOptions{}, s, e.machine, 0)
	default:
		return JoinResult{}, fmt.Errorf("hwstar: unknown join algorithm %q: %w", algo, ErrInvalidInput)
	}
	if err != nil {
		return JoinResult{}, err
	}
	return JoinResult{Matches: res.Matches, Checksum: res.Checksum, Algorithm: algo, Cost: Cost{SimCycles: res.MakespanCycles}}, nil
}

// GroupSumResult reports a parallel aggregation outcome.
type GroupSumResult struct {
	// Cost carries SimCycles, the simulated parallel makespan.
	Cost
	Groups map[int64]int64
}

// GroupSum computes SUM(vals) GROUP BY keys with the given strategy on the
// engine's simulated cores. Cancelling ctx aborts at the next morsel
// boundary.
func (e *Engine) GroupSum(ctx context.Context, keys, vals []int64, strategy AggStrategy) (GroupSumResult, error) {
	s, err := e.scheduler()
	if err != nil {
		return GroupSumResult{}, err
	}
	res, err := agg.Parallel(ctx, keys, vals, strategy, s, e.machine, 0)
	if err != nil {
		return GroupSumResult{}, err
	}
	return GroupSumResult{Groups: res.Groups, Cost: Cost{SimCycles: res.MakespanCycles}}, nil
}

// SharedScanResult reports a shared-scan batch execution.
type SharedScanResult struct {
	// Cost carries SimCycles, the parallel makespan of the clock scan.
	Cost
	// Sums holds one aggregate per query, in input order.
	Sums []int64
}

// SharedScan answers a batch of range-filter SUM queries with one
// cooperative clock scan over the columns. Cancelling ctx aborts at the next
// segment boundary.
func (e *Engine) SharedScan(ctx context.Context, cols [][]int64, qs []ScanQuery) (SharedScanResult, error) {
	rel, err := scan.NewRelation(cols)
	if err != nil {
		return SharedScanResult{}, err
	}
	s, err := e.scheduler()
	if err != nil {
		return SharedScanResult{}, err
	}
	sums, schedRes, err := scan.ParallelShared(ctx, rel, qs, scan.SharedOptions{UseQueryIndex: true}, s, 0)
	if err != nil {
		return SharedScanResult{}, err
	}
	return SharedScanResult{Sums: sums, Cost: Cost{SimCycles: schedRes.MakespanCycles}}, nil
}

// TopGroup is one entry of a TopGroups result.
type TopGroup = vecexec.GroupResult

// TopGroups computes SUM(vals) GROUP BY keys and returns the k groups with
// the largest sums, descending — the vectorized engine's ORDER BY ... LIMIT
// k, built on a cache-sized open-addressing table and a size-k heap instead
// of a full sort. The context is checked between vector-sized batches.
func (e *Engine) TopGroups(ctx context.Context, keys []int64, vals []float64, k int) ([]TopGroup, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("hwstar: keys/vals length mismatch: %d vs %d: %w", len(keys), len(vals), ErrInvalidInput)
	}
	g := vecexec.NewHashGroupSum(1024)
	var ctxErr error
	vecexec.Chunks(len(keys), func(start, end int) {
		if ctxErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			ctxErr = err
			return
		}
		g.AddBatch(keys[start:end], vals[start:end], nil)
	})
	if ctxErr != nil {
		return nil, fmt.Errorf("hwstar: top-groups aborted: %w", ctxErr)
	}
	return g.TopK(k), nil
}

// AdviseLayout recommends a storage layout for a rows×cols relation under
// the given access profile, with the modeled cost of every candidate.
func (e *Engine) AdviseLayout(rows, cols int, p AccessProfile) (LayoutKind, map[LayoutKind]float64, error) {
	adv, err := layout.Advise(rows, cols, p, e.machine)
	if err != nil {
		return 0, nil, err
	}
	return adv.Best, adv.Costs, nil
}

// Cost prices a hardware-work description on the engine's machine under a
// single-core context — the entry point for users modelling their own
// operators.
func (e *Engine) Cost(w Work) float64 {
	return e.machine.Cycles(w, hw.DefaultContext())
}

// Schema construction and CSV I/O, re-exported so users can bring their own
// data: build a Schema, LoadCSV into a Table, and feed it to the engine
// (Table.WriteCSV round-trips results back out).
type ColumnDef = table.ColumnDef

// Column types for schema construction.
const (
	TypeInt64   = table.Int64
	TypeFloat64 = table.Float64
	TypeString  = table.String
)

// MustSchema builds a schema from column definitions and panics on error,
// for statically known schemas.
var MustSchema = table.MustSchema

// LoadCSV reads a header-carrying CSV stream into a Table using the given
// schema (header names must match the schema).
var LoadCSV = table.ReadCSV

// JoinVariant names one of the planner's executable join implementations.
type JoinVariant = planner.JoinVariant

// PlanJoin consults the machine model to pick the cheapest join variant
// (naive, group-prefetched, Bloom-filtered, or radix-partitioned) for the
// given statistics, returning the choice and every variant's predicted
// cycles.
func (e *Engine) PlanJoin(buildRows, probeRows int64, missFrac float64) (JoinVariant, map[JoinVariant]float64) {
	p := planner.ChooseJoin(e.machine, join.Stats{
		BuildRows: buildRows, ProbeRows: probeRows, MissFrac: missFrac,
	}, hw.DefaultContext())
	return p.Variant, p.All
}

// QueryEngine selects an execution model for the built-in analytic queries:
// "volcano" (tuple-at-a-time), "vectorized", or "fused".
type QueryEngine = queries.Engine

// Query engines.
const (
	Volcano    = queries.EngineVolcano
	Vectorized = queries.EngineVectorized
	Fused      = queries.EngineFused
)

// Q1Row is one group of the Q1-shaped aggregation query.
type Q1Row = queries.Q1Row

// Q6Result reports a Q6 execution: the revenue sum plus the modeled cycles.
type Q6Result struct {
	Cost
	Revenue float64
}

// Q1Result reports a Q1 execution: the result groups plus the modeled cycles.
type Q1Result struct {
	Cost
	Rows []Q1Row
}

// RunQ6 executes the TPC-H-Q6-shaped query on a lineitem table with the
// given execution model. The query plans are single-threaded; the context is
// checked before execution starts.
func (e *Engine) RunQ6(ctx context.Context, eng QueryEngine, lineitem *Table) (Q6Result, error) {
	if err := ctx.Err(); err != nil {
		return Q6Result{}, fmt.Errorf("hwstar: q6 aborted: %w", err)
	}
	acct := hw.NewAccount(e.machine, hw.DefaultContext())
	sum, err := queries.Q6(eng, lineitem, queries.DefaultQ6(), acct)
	if err != nil {
		return Q6Result{}, err
	}
	return Q6Result{Revenue: sum, Cost: Cost{SimCycles: acct.TotalCycles()}}, nil
}

// RunQ1 executes the TPC-H-Q1-shaped query on a lineitem table with the
// given execution model. The query plans are single-threaded; the context is
// checked before execution starts.
func (e *Engine) RunQ1(ctx context.Context, eng QueryEngine, lineitem *Table) (Q1Result, error) {
	if err := ctx.Err(); err != nil {
		return Q1Result{}, fmt.Errorf("hwstar: q1 aborted: %w", err)
	}
	acct := hw.NewAccount(e.machine, hw.DefaultContext())
	rows, err := queries.Q1(eng, lineitem, queries.DefaultQ1(), acct)
	if err != nil {
		return Q1Result{}, err
	}
	return Q1Result{Rows: rows, Cost: Cost{SimCycles: acct.TotalCycles()}}, nil
}

// Server is a concurrent query service on top of the engine: an
// admission-controlled intake queue feeding a dispatcher that batches
// compatible scan requests into one shared clock scan and schedules other
// operations under a per-server simulated-core budget. See the serve
// package for the full semantics; NewServer is the entry point.
type Server = serve.Server

// ServerOptions configures a Server (worker budget, queue depth, batch size
// cap). The zero value uses sensible defaults.
type ServerOptions = serve.Options

// Request is one operation submitted to a Server.
type Request = serve.Request

// Response is a Server's answer: the operation's result fields plus the
// amortized modeled cost.
type Response = serve.Response

// ServerOp names a Server operation kind.
type ServerOp = serve.Op

// Server operation kinds.
const (
	OpScan     = serve.OpScan
	OpJoin     = serve.OpJoin
	OpGroupSum = serve.OpGroupSum
	OpQ1       = serve.OpQ1
	OpQ6       = serve.OpQ6
)

// NewServer starts a query server on the given machine profile. Submit
// queries with Server.Submit; stop it with Server.Close, which drains
// admitted work before returning.
func NewServer(m *Machine, opts ServerOptions) (*Server, error) {
	return serve.New(m, opts)
}

// FaultConfig arms a fault injector: seeded, per-class probabilities for
// injected panics, stragglers, transient failures, core loss, and allocation
// failures. See internal/fault for the full semantics.
type FaultConfig = fault.Config

// FaultInjector produces deterministic faults and logs every firing. Arm
// one on a Server via ServerOptions.Faults; read its Log/Counts afterwards
// to prove what the run survived.
type FaultInjector = fault.Injector

// FaultEvent is one fired fault in a FaultInjector's log.
type FaultEvent = fault.Event

// NewFaultInjector builds an injector from a FaultConfig.
var NewFaultInjector = fault.New

// ServerHealth is the resilience snapshot returned by Server.Health():
// breaker state, failure streak, retry/re-dispatch counters, memory-governor
// position, and injected fault counts.
type ServerHealth = serve.Health

// MemoryConfig arms a Server's memory governor via ServerOptions.Memory: a
// server-wide byte budget, a per-query reservation granted at admission, and
// optionally KillOnOverage (the "naive engine" mode E22 uses as its
// baseline, where allocation always succeeds but crossing the budget is a
// fatal simulated OOM kill). See internal/mem for the full semantics.
type MemoryConfig = mem.Config

// MemoryStats is the governor's snapshot inside ServerHealth.Memory: budget
// position, peak usage, live reservations, and denial/kill counters.
type MemoryStats = mem.Stats

// Store is the durable storage tier: checkpointed columnar segments with
// per-segment checksums, an atomically-committed versioned manifest,
// crash-recovery replay, and DRAM/flash tiering priced through the machine's
// flash bandwidth. Arm one on a Server via ServerOptions.Store; the server
// replays the hot set before admitting work and the caller closes the store
// after Server.Close. See internal/store for the commit protocol.
type Store = store.Store

// StoreOptions configures a Store: directory, pricing machine, fault
// injector, and the DRAM budget of the hot/cold placement policy.
type StoreOptions = store.Options

// RecoveryStats describes one OpenStore's replay of durable state:
// the manifest version recovery landed on, fallbacks past corrupt
// candidates, and the validated byte volume with its modeled flash cost.
type RecoveryStats = store.RecoveryStats

// CheckpointStats describes one committed checkpoint: manifest version,
// segments and bytes written, modeled flash-write cycles, and wall time.
type CheckpointStats = store.CheckpointStats

// OpenStore opens (or creates) a durable store and replays its committed
// state, falling back to the newest manifest version that validates end to
// end. A directory whose manifests are all corrupt fails with ErrCorrupted
// rather than silently serving an empty store.
var OpenStore = store.Open

// Tracer records query-lifecycle span trees (admit → queue → batch assembly
// → execute → retries, down to per-worker schedules) in a bounded ring. Arm
// one on a Server via ServerOptions.Trace; read completed traces with
// Tracer.Snapshot. A nil Tracer is valid everywhere and records nothing.
type Tracer = trace.Tracer

// Span is one stage of a traced request. All methods are nil-safe, so
// instrumented code never branches on whether tracing is armed.
type Span = trace.Span

// TraceConfig sizes a Tracer: ring capacity, per-trace span cap, sampling
// rate. The zero value uses sensible defaults.
type TraceConfig = trace.Config

// TraceData is an immutable snapshot of one completed trace; SpanData one
// span of it. TraceData.Render formats the span tree for humans.
type (
	TraceData = trace.TraceData
	SpanData  = trace.SpanData
)

// NewTracer builds a Tracer from a TraceConfig.
var NewTracer = trace.New

// Data generators re-exported from internal/workload so examples and users
// can produce the same deterministic datasets the experiments use.
var (
	// GenUniform returns n keys uniform in [0, max).
	GenUniform = workload.UniformInts
	// GenZipf returns n keys in [0, max) with Zipf skew s.
	GenZipf = workload.ZipfInts
	// GenLineItem generates a TPC-H-flavoured lineitem table.
	GenLineItem = workload.LineItem
)

// JoinData holds generated foreign-key join inputs.
type JoinData = workload.JoinInput

// GenJoin generates a foreign-key join input: build rows with unique keys
// and probe rows drawn from the build domain with optional Zipf skew.
func GenJoin(seed int64, buildRows, probeRows int, zipfS float64) JoinData {
	return workload.GenerateJoin(workload.JoinConfig{
		Seed: seed, BuildRows: buildRows, ProbeRows: probeRows, ZipfS: zipfS,
	})
}

// Router is the sharded serving tier: N serve.Server shards behind a
// consistent-hash router with R-way replication, replica failover with
// per-node circuit breakers, hedged dispatch against stragglers,
// cost-model-chosen distributed join strategies, typed partial results on
// total replica loss, and governed re-replication from surviving durable
// stores on node recovery. See internal/shard.
type Router = shard.Router

// RouterOptions configures a Router: shard and replica counts, the
// per-shard ServerOptions, per-node durable stores, fault injector, and the
// cluster-wide memory budget. Partition count, fabric, admission bound,
// hedging and breaker policy are fixed (see DESIGN.md).
type RouterOptions = shard.Options

// RouterResponse is a Router's distributed answer: the serve.Response plus
// the fabric price paid (strategy, network cycles, bytes moved) and the
// routing story (hedged, failovers).
type RouterResponse = shard.Response

// ClusterHealth is the Router's observability surface: topology, live
// nodes, routing counters (failovers, hedges, partials, re-replications),
// and per-node breakdowns.
type ClusterHealth = shard.ClusterHealth

// NodeHealth is one shard's slice of ClusterHealth.
type NodeHealth = shard.NodeHealth

// PartitionInfo describes one partition's placement: its row stripe and
// replica set. Chaos tooling uses it to stage targeted failures.
type PartitionInfo = shard.PartitionInfo

// NewRouter boots a sharded serving tier on the given machine profile,
// waiting for every shard's durable replay (if stores are armed) before
// returning.
var NewRouter = shard.New

// Frontend is the multi-tenant HTTP/JSON face of a Server: sessions with
// bearer tokens, per-tenant token-bucket rate limits and concurrency quotas,
// priority classes, and the versioned v1 wire protocol. Mount
// Frontend.Handler on an http.Server. See internal/frontend.
type Frontend = frontend.Frontend

// FrontendConfig assembles a Frontend: the backend it fronts (a Server, or
// any FrontendBackend such as a Router), the tenant set, session TTL, query
// timeout, and named lineitem tables for q1/q6.
type FrontendConfig = frontend.Config

// FrontendBackend is the engine surface a Frontend fronts; both *Server and
// *Router satisfy it.
type FrontendBackend = frontend.Backend

// TenantConfig declares one tenant: id, API key, default priority class, and
// its governance envelope (rate limit, concurrency quota, memory cap).
type TenantConfig = frontend.TenantConfig

// NewFrontend validates a FrontendConfig and builds the HTTP API state.
var NewFrontend = frontend.New

// Priority classifies a Server request's dispatch class; batch work is
// core-capped and queued behind interactive work so it cannot starve
// interactive p99.
type Priority = serve.Priority

// Priority classes.
const (
	PriorityInteractive = serve.PriorityInteractive
	PriorityBatch       = serve.PriorityBatch
)

// TenantHealth is one tenant's slice of a Server's counters and latency
// distribution, inside ServerHealth.Tenants.
type TenantHealth = serve.TenantHealth

// RunExperiment executes one experiment of the E1–E26 suite at the given
// scale (1 = full size) and returns its result tables.
func RunExperiment(id string, scale float64) ([]*ResultTable, error) {
	exp, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return exp.Run(experiments.Config{Scale: scale})
}

// ExperimentIDs lists the available experiment identifiers in order.
func ExperimentIDs() []string {
	all := experiments.All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}
