// Package serve is the concurrent query service layer over the hwstar
// engine: it multiplexes many concurrent clients onto one simulated machine
// instead of running every query in isolation. The design operationalizes
// the SharedDB/Crescando argument the keynote builds on — under concurrency,
// the unit of execution should be a shared pass over the data, not a query:
//
//   - clients submit Requests through a bounded intake queue; when the queue
//     is full the server rejects with ErrOverloaded instead of buffering
//     without bound (admission control / backpressure);
//   - scan-shaped requests against the same registered relation that arrive
//     while the cores are busy (up to MaxBatch) run as ONE block-major pass
//     over the compressed columns (vecserve.go): memory traffic is paid once
//     per batch, not per client; a scan that finds the cores idle starts at once;
//   - join/aggregate/query requests flow through the morsel scheduler under a
//     per-server simulated-core budget, so concurrent operations cannot
//     oversubscribe the machine;
//   - what starts, and on how many cores, is decided by one dispatcher
//     (dispatch.go): a pure step function over plain core counts, with the
//     batching, batch-cap and interactive-reserve rules as its table rows.
//     The loop around it (Server.dispatch) is the only code that touches the
//     lanes and starts executors, and it steps every core release already
//     sent before the next arrival or idle step;
//   - every request carries a context.Context honoured end to end: expired
//     deadlines are rejected before execution, and in-flight work stops at
//     the next morsel boundary;
//   - Close drains: queued requests finish, new ones get ErrClosed.
//
// The server is also the resilience layer over a partially failing machine
// (arm faults with Options.Faults; see internal/fault):
//
//   - morsel-level transient failures and recovered worker panics are
//     retried with bounded exponential backoff plus jitter (MaxRetries,
//     RetryBackoff);
//   - a circuit breaker trips after BreakerThreshold consecutive failures:
//     while open, join/aggregate/query requests are shed with ErrDegraded,
//     and scan requests still run — on a quarter of the worker budget — so
//     the serving layer degrades instead of collapsing. After
//     BreakerCooldown one probe request half-opens the breaker; a success
//     closes it;
//   - Health() snapshots the breaker, retry, re-dispatch, and fault-log
//     state.
//
// With Options.Memory armed the server also governs memory (see
// internal/mem): join/aggregate requests win a reservation at admission or
// are shed with ErrMemoryPressure, operators charge hash-table state against
// the reservation and degrade to a grace-hash spill plan when a charge is
// denied, and settle() accounts spill and peak-footprint accounting before
// releasing the reservation. Memory pressure deliberately does NOT feed the
// circuit breaker: a full budget is relieved by completions, not by shedding
// into degraded mode.
//
// With Options.Store armed the server is durable (see internal/store):
// registered tables are staged into the segment store, Checkpoint writes an
// atomically-committed manifest version while serving continues, and New
// registers the hot tables the opened store already holds, so a restarted
// server answers from the moment New returns (recovery is store.Open's work).
// Cold-tier tables are validated at recovery but loaded lazily, priced
// through the machine's flash-bandwidth tier, on their first request.
// CheckpointInterval arms a background checkpointer whose segment images are
// charged against the memory governor, so durability work competes with
// queries under the same byte budget instead of around it.
//
// Per-server metrics (queue depth, batch sizes, latencies, modeled cycles
// per query, admission and resilience counters) are recorded in a
// metrics.Registry.
package serve

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/breaker"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/mem"
	"hwstar/internal/metrics"
	"hwstar/internal/queries"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
	"hwstar/internal/store"
	"hwstar/internal/table"
	"hwstar/internal/trace"
)

// Op identifies a request kind.
type Op string

// Request kinds.
const (
	OpScan     Op = "scan"      // range-filter SUM over a registered relation (batchable)
	OpJoin     Op = "join"      // parallel equi-join
	OpGroupSum Op = "group-sum" // parallel GROUP BY SUM
	OpQ1       Op = "q1"        // TPC-H-Q1-shaped query over a lineitem table
	OpQ6       Op = "q6"        // TPC-H-Q6-shaped query over a lineitem table
)

// Priority classifies a request for the dispatch path. Interactive (the
// zero value) is the latency-sensitive class; batch is throughput work that
// must never starve interactive p99: batch requests queue in their own
// intake lane that the dispatcher serves only after the interactive lane,
// and batch operations are capped to Workers-InteractiveReserve simulated
// cores in total, so an interactive request never waits behind the whole
// batch backlog for a core.
type Priority string

// Priority classes. The empty string is interactive, so the zero Request
// keeps its pre-priority behaviour.
const (
	PriorityInteractive Priority = "interactive"
	PriorityBatch       Priority = "batch"
)

// batchClass reports whether p is the batch (sheddable, core-capped) class.
func (p Priority) batchClass() bool { return p == PriorityBatch }

// Lane names the dispatch lane the priority maps to ("interactive" or
// "batch"), normalizing the empty default.
func (p Priority) Lane() string {
	if p.batchClass() {
		return "batch"
	}
	return "interactive"
}

// Request is one client query. Set Op and the fields of the matching group;
// the rest stay zero.
type Request struct {
	Op Op

	// Tenant labels the request with the submitting tenant's identity.
	// Non-empty tenants get their own metric dimension (serve.tenant.<id>.*
	// counters and histograms), a per-tenant Health breakdown, tenant
	// attribution on trace spans, and — when the memory governor carries
	// per-tenant caps — a tenant-scoped memory budget. Empty means
	// unattributed (the pre-multi-tenancy behaviour).
	Tenant string

	// Priority selects the dispatch class: "" or "interactive" for the
	// latency-sensitive lane, "batch" for the core-capped throughput lane.
	Priority Priority

	// TraceID, when non-empty, is attached to the request's trace span so a
	// wire-level request id can be joined against the server's span trees.
	TraceID string

	// OpScan: one range-filter aggregation against the relation registered
	// under Table. Scan requests are the batchable shape — concurrent scans
	// of the same table share one pass.
	Table string
	Query scan.Query

	// OpJoin: equi-join input and algorithm ("" or "auto" resolves from the
	// machine's cache hierarchy, as the Engine façade does).
	Join      join.Input
	Algorithm join.Algorithm

	// OpGroupSum: SUM(Vals) GROUP BY Keys with the given strategy.
	Keys, Vals []int64
	Strategy   agg.Strategy

	// OpQ1 / OpQ6: the lineitem table and execution engine.
	Lineitem *table.Table
	Engine   queries.Engine
}

// Response is the server's answer to one Request. The embedded hw.Cost
// reports the modeled cycles attributed to this request: for batched scans
// that is the batch makespan divided by the batch size — the amortization
// that makes sharing worthwhile.
type Response struct {
	hw.Cost

	// BatchSize is the number of requests that shared this execution
	// (1 for unbatched operations).
	BatchSize int

	// Spilled reports that the operation degraded to the simulated spill
	// tier because its table state did not fit the memory reservation;
	// SpillBytes is the simulated traffic written to that tier.
	Spilled    bool
	SpillBytes int64

	// Sum is the scan result (OpScan).
	Sum int64

	// Matches and Checksum report the join output (OpJoin).
	Matches  int64
	Checksum uint64

	// Groups is the aggregation result (OpGroupSum).
	Groups map[int64]int64

	// Q1Rows and Revenue are the analytic query results (OpQ1, OpQ6).
	Q1Rows  []queries.Q1Row
	Revenue float64

	// Partial reports that a distributed execution could not reach every
	// replica of every key range and the result covers only the surviving
	// fraction — exact over what it covers, never a silent wrong total.
	// CoveredFraction is the fraction of the table's rows the answer
	// includes (1 when Partial is false). Single-server executions never
	// set it; the shard router does, alongside errs.ErrPartialResult.
	Partial         bool
	CoveredFraction float64
}

// Options configures a Server.
type Options struct {
	// Workers is the server's simulated-core budget — the maximum number of
	// simulated cores in use across all concurrently executing operations.
	// 0 means all cores of the machine; more than the machine has is an
	// error.
	Workers int
	// OpWorkers is the number of simulated cores one join/aggregate
	// operation runs on. Defaults to half the budget (min 1) so two heavy
	// operations can overlap. Shared-scan batches always use the full
	// budget: one cooperative pass should own the machine.
	OpWorkers int
	// QueueDepth bounds each intake lane, interactive and batch-priority
	// alike; submissions beyond it are rejected with ErrOverloaded. Batch
	// traffic overflowing its lane does not touch the interactive lane's
	// headroom. Default 256.
	QueueDepth int
	// InteractiveReserve is the number of simulated-core tokens batch-class
	// work may never occupy: batch operations (and scan passes whose every
	// member is batch-class) hold at most Workers-InteractiveReserve tokens
	// in total, so interactive work always finds cores without waiting for
	// the batch backlog to drain. Default Workers/4 (min 1); must leave at
	// least one token for batch work (InteractiveReserve < Workers).
	InteractiveReserve int
	// MaxBatch caps the number of scan requests sharing one pass; reaching
	// it closes the batch. Default 1024.
	MaxBatch int

	// Faults arms a fault injector on every scheduled operation. Nil (the
	// default) injects nothing.
	Faults *fault.Injector

	// Memory arms the memory governor: admission reserves
	// Memory.PerQueryBytes for every join/aggregate request against the
	// server-wide Memory.BudgetBytes, operators charge their hash-table
	// state against the reservation and degrade to the spill tier when it
	// cannot grow, and requests that cannot reserve at all are shed with
	// ErrMemoryPressure. The zero value disables governance. When
	// Memory.Faults is nil the server's own Faults injector drives
	// allocation-failure injection, so one seed replays compute and memory
	// chaos together.
	Memory mem.Config

	// MaxRetries is how many times a failed operation (transient fault or
	// unabsorbed worker panic) is re-executed before the error reaches the
	// client; 0 disables retries. RetryBackoff is the base of the
	// exponential backoff between attempts (default 200µs when retries are
	// on); the actual sleep is base<<attempt, capped at 32×base, with full
	// jitter in [d/2, d).
	MaxRetries   int
	RetryBackoff time.Duration

	// JitterSeed seeds the retry-backoff jitter generator. The default (0)
	// derives a varied per-server seed, so concurrent server instances do
	// NOT draw identical jitter and synchronize their retry storms; set a
	// non-zero seed only where reproducible backoff sequences matter
	// (tests, deterministic experiments).
	JitterSeed int64

	// Trace arms query-lifecycle tracing: sampled requests record a span
	// tree (admit → queue → batch assembly → execute → retries) carrying
	// wall time and simulated cycles, retained in the tracer's bounded
	// ring. Nil disables tracing at zero cost.
	Trace *trace.Tracer

	// BreakerThreshold arms the circuit breaker: after that many
	// consecutive operation failures the breaker opens, shedding non-scan
	// requests with ErrDegraded and running scans on Workers/4 (min 1)
	// simulated cores. After BreakerCooldown (default 10ms) one request
	// probes half-open; success closes the breaker. 0 disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// IsolatePanics, StragglerThreshold, and SchedBlockSize configure the
	// scheduler's own resilience for every operation this server runs (see
	// sched.Options).
	IsolatePanics      bool
	StragglerThreshold float64
	SchedBlockSize     int

	// Store arms the durable storage tier: an opened (and therefore already
	// crash-recovered) segment store. Tables registered on the server are
	// staged into it, Checkpoint persists them as an atomically-committed
	// manifest version, and New registers the store's hot tables before it
	// returns. The server does not close the store; its opener does, after
	// Server.Close. Nil (the default) keeps the server memory-only.
	Store *store.Store

	// CheckpointInterval arms a background checkpointer that persists the
	// store every interval while the server runs, stopping (after a final
	// flush) at Close. Requires Store; 0 disables background checkpoints —
	// Close still flushes once when a store is armed.
	CheckpointInterval time.Duration
}

func (o Options) withDefaults(m *hw.Machine) (Options, error) {
	if o.Workers == 0 {
		o.Workers = m.TotalCores()
	}
	if o.Workers < 0 || o.Workers > m.TotalCores() {
		return o, fmt.Errorf("serve: worker budget %d out of range 1..%d: %w", o.Workers, m.TotalCores(), errs.ErrWorkersOutOfRange)
	}
	if o.OpWorkers == 0 {
		o.OpWorkers = o.Workers / 2
		if o.OpWorkers < 1 {
			o.OpWorkers = 1
		}
	}
	if o.OpWorkers < 0 || o.OpWorkers > o.Workers {
		return o, fmt.Errorf("serve: op workers %d out of range 1..%d: %w", o.OpWorkers, o.Workers, errs.ErrWorkersOutOfRange)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	switch {
	case o.InteractiveReserve < 0:
		o.InteractiveReserve = 0 // negative = explicitly no reserve
	case o.InteractiveReserve == 0:
		// Default: a quarter of the budget (min 1), but always leave batch
		// work at least one token — a 1-core machine cannot reserve.
		o.InteractiveReserve = o.Workers / 4
		if o.InteractiveReserve < 1 {
			o.InteractiveReserve = 1
		}
		if o.InteractiveReserve > o.Workers-1 {
			o.InteractiveReserve = o.Workers - 1
		}
	case o.InteractiveReserve >= o.Workers:
		return o, fmt.Errorf("serve: interactive reserve %d out of range 0..%d: %w", o.InteractiveReserve, o.Workers-1, errs.ErrWorkersOutOfRange)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxRetries > 0 && o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Microsecond
	}
	if o.CheckpointInterval > 0 && o.Store == nil {
		return o, fmt.Errorf("serve: checkpoint interval %s without a store: %w", o.CheckpointInterval, errs.ErrInvalidInput)
	}
	if o.BreakerThreshold > 0 && o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Millisecond
	}
	return o, nil
}

// pending is one admitted request waiting for its outcome. The spans are
// nil (no-op) when tracing is off or the request fell outside the sampling
// rate: span is the request's root, queueSpan covers enqueue → dispatch,
// batchSpan covers a scan's wait while its batch assembles, from joined on.
type pending struct {
	ctx    context.Context
	req    Request
	enq    time.Time
	joined time.Time
	out    outcome // what settle left for done
	done   chan outcome

	// resv is the request's memory reservation (nil when ungoverned or for
	// scans, which carry no operator table state). Released in settle — the
	// single point every admitted request converges on.
	resv *mem.Reservation

	span      *trace.Span
	queueSpan *trace.Span
	batchSpan *trace.Span
}

type outcome struct {
	resp Response
	err  error
}

// Server is an admission-controlled, batching query service bound to one
// machine profile. All methods are safe for concurrent use.
type Server struct {
	machine *hw.Machine
	opts    Options
	reg     *metrics.Registry
	gov     *mem.Governor // nil when memory governance is off

	// intake is the interactive lane; intakeLo the batch-priority lane. The
	// dispatcher drains intake first, so batch backlog cannot impose
	// head-of-line latency on interactive requests.
	intake   chan *pending
	intakeLo chan *pending
	// released carries executors' core releases to the dispatcher. Buffered
	// to Workers: every running unit holds a core, so a send never blocks.
	released  chan event
	coresFree *metrics.Gauge // serve.cores_free, set after every step

	// brk is the circuit breaker (nil when disabled); rng feeds backoff
	// jitter deterministically.
	brk   *breaker.Breaker
	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.RWMutex // guards closed and tables
	closed bool
	tables map[string]*vecTable

	// Durable-tier state (nil when Options.Store is nil). stopc ends the
	// background checkpointer at Close.
	st    *store.Store
	stopc chan struct{}

	wg sync.WaitGroup // dispatcher + in-flight executors

	// testHold, when non-nil, blocks every executor after it has acquired
	// its core tokens until the channel is closed. Tests use it to pin the
	// pipeline and exercise backpressure deterministically.
	testHold chan struct{}
}

// seedFallback distinguishes servers within one process if the entropy pool
// is somehow unreadable.
var seedFallback atomic.Int64

// entropySeed derives a per-instance jitter seed from the OS entropy pool.
// Jitter wants identity, not reproducibility: distinct servers — including
// ones in separate processes started the same instant — must not share a
// backoff phase. Reading crypto/rand once at construction is the
// seededrand-sanctioned way to get that; anything reproducible should
// thread Options.JitterSeed instead.
func entropySeed() int64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return int64(uint64(0x9E3779B97F4A7C15) ^ uint64(seedFallback.Add(1)))
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// New starts a server on the given machine profile. The returned server is
// running; stop it with Close.
func New(m *hw.Machine, opts Options) (*Server, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: %w", errs.ErrNilMachine)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults(m)
	if err != nil {
		return nil, err
	}
	// Backoff jitter must differ between server instances: a shared constant
	// seed makes concurrent servers draw identical jitter and synchronize
	// their retry storms, defeating the jitter's purpose (the PR 2 bug). A
	// time.Now seed is the opposite failure — servers started in the same
	// instant still collide, and chaos runs become unreproducible — so the
	// default seed comes from the OS entropy pool instead. Tests pin
	// JitterSeed for reproducibility.
	seed := opts.JitterSeed
	if seed == 0 {
		seed = entropySeed()
	}
	s := &Server{
		machine:  m,
		opts:     opts,
		reg:      metrics.NewRegistry(),
		intake:   make(chan *pending, opts.QueueDepth),
		intakeLo: make(chan *pending, opts.QueueDepth),
		released: make(chan event, opts.Workers),
		tables:   make(map[string]*vecTable),
		rng:      rand.New(rand.NewSource(seed)),
	}
	s.coresFree = s.reg.Gauge("serve.cores_free")
	s.coresFree.Set(int64(opts.Workers))
	if opts.BreakerThreshold > 0 {
		s.brk = breaker.New(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	// Arm the memory governor when a budget is set or allocation faults are
	// requested (an unlimited governor still injects). The server's compute
	// fault injector doubles as the allocation injector unless the memory
	// config brings its own.
	mc := opts.Memory
	if mc.Faults == nil {
		mc.Faults = opts.Faults
	}
	if mc.BudgetBytes > 0 || mc.Faults != nil {
		s.gov = mem.NewGovernor(mc)
	}
	if opts.Store != nil {
		s.st = opts.Store
		s.stopc = make(chan struct{})
		if err := s.registerStored(); err != nil {
			return nil, err
		}
		if opts.CheckpointInterval > 0 {
			s.wg.Add(1)
			go s.checkpointLoop()
		}
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// lifetimeCtx is the context of server-owned background work (the interval
// checkpointer): done when the server closes, never before. It is
// hand-rolled rather than derived from context.Background() because that
// goroutine has no caller to inherit cancellation from — its lifecycle IS
// the server's, and ctxfirst bans fresh root contexts in
// library code for exactly the caller-inheriting paths this is not.
type lifetimeCtx struct{ done chan struct{} }

func (c lifetimeCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c lifetimeCtx) Done() <-chan struct{}       { return c.done }
func (c lifetimeCtx) Value(any) any               { return nil }
func (c lifetimeCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// registerStored registers the opened store's hot tables — resident after
// store.Open, so each Load is a map lookup. Cold-tier tables are left to
// loadCold on first touch, so a cold start under load pays flash bandwidth
// only for tables the traffic actually asks for.
func (s *Server) registerStored() error {
	for _, name := range s.st.Tables() {
		if s.st.Tier(name) != store.TierHot {
			continue
		}
		vt, _, err := s.loadStored(lifetimeCtx{}, name)
		if err != nil {
			return err
		}
		s.tables[name] = vt
		s.reg.Counter("serve.replayed_tables").Inc()
	}
	return nil
}

// loadStored reads one table from the durable store, returning the modeled
// load cycles. The store hands back the block streams it persisted, so the
// table is served as loaded — nothing is re-encoded.
func (s *Server) loadStored(ctx context.Context, name string) (*vecTable, float64, error) {
	t, cycles, err := s.st.Load(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	vt, ok := newVecTable(t)
	if !ok {
		return nil, 0, fmt.Errorf("serve: stored table %q is not an encoded int64 relation: %w", name, errs.ErrCorrupted)
	}
	return vt, cycles, nil
}

// checkpointLoop persists the store every CheckpointInterval until Close.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	ctx := lifetimeCtx{done: s.stopc}
	tick := time.NewTicker(s.opts.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-tick.C:
			if _, err := s.Checkpoint(ctx); err != nil && !errors.Is(err, context.Canceled) {
				s.reg.Counter("serve.checkpoint_failures").Inc()
			}
		}
	}
}

// WaitRecovered returns nil: a server is recovered when New returns. It
// stays because the frozen benchmark (cmd/hwperf) calls it.
func (s *Server) WaitRecovered(context.Context) error { return nil }

// Checkpoint persists every table staged in the durable store as one new
// atomically-committed manifest version, concurrent with serving: the store
// snapshots under its own lock and in-flight queries keep running against
// the resident tables. When the memory governor is armed, the checkpoint's
// segment images are charged against the server's byte budget under the
// "_checkpoint" tenant — a budget too full to grant them fails the
// checkpoint with ErrMemoryPressure rather than blowing the budget, and the
// interval loop simply tries again next tick. Checkpoints are single-flight;
// a concurrent call blocks on the store's checkpoint lock.
func (s *Server) Checkpoint(ctx context.Context) (store.CheckpointStats, error) {
	if s.st == nil {
		return store.CheckpointStats{}, fmt.Errorf("serve: checkpoint without a store: %w", errs.ErrInvalidInput)
	}
	var resv *mem.Reservation
	if s.gov != nil {
		var err error
		resv, err = s.gov.ReserveFor("_checkpoint", 0)
		if err != nil {
			s.reg.Counter("serve.checkpoint_mem_shed").Inc()
			return store.CheckpointStats{}, fmt.Errorf("serve: checkpoint shed at admission: %w", err)
		}
		defer resv.Release()
	}
	st, err := s.st.Checkpoint(ctx, resv)
	if err != nil {
		// The denial can come from the per-segment encode charge, not just
		// admission: count it under the same shed metric either way.
		if errors.Is(err, errs.ErrMemoryPressure) {
			s.reg.Counter("serve.checkpoint_mem_shed").Inc()
		}
		return st, err
	}
	s.reg.Counter("serve.checkpoints").Inc()
	s.reg.Counter("serve.checkpoint_segments").Add(int64(st.Segments))
	s.reg.Counter("serve.checkpoint_bytes").Add(st.Bytes)
	s.reg.Histogram("serve.checkpoint_cycles").Record(st.SimCycles)
	return st, nil
}

// Metrics returns the server's metrics registry. Counters:
// serve.admitted, serve.rejected, serve.invalid, serve.completed,
// serve.deadline_exceeded. Histograms: serve.batch_size, serve.latency_ms,
// serve.queue_wait_ms, serve.batch_wait_ms (a scan's wait in its open batch),
// serve.cycles_per_query. Gauge: serve.queue_depth.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Workers returns the server's simulated-core budget.
func (s *Server) Workers() int { return s.opts.Workers }

// Register makes a columnar relation available to scan requests under the
// given name: it encodes cols into FOR/RLE block streams and registers
// those (see RegisterEncoded). cols is not retained.
func (s *Server) Register(name string, cols [][]int64) error {
	if _, err := scan.NewRelation(cols); err != nil {
		return err
	}
	t, err := store.TableFromCols(name, cols)
	if err != nil {
		return fmt.Errorf("serve: register %q: %w", name, err)
	}
	return s.RegisterEncoded(t)
}

// RegisterEncoded makes an already-encoded relation (store.TableFromCols,
// or a table loaded from a store) available to scan requests under its own
// name. Registering an existing name replaces the relation (new batches see
// the new data; a batch in flight finishes on the old). The table's blocks
// are immutable and shared, not copied: the shard tier registers one encoded
// stripe on every replica. On a durable server the same table is staged into
// the segment store, so the next Checkpoint persists exactly the blocks
// being served. The closed check, the staging and the registration are one
// critical section: a registration that reports failure has staged nothing
// for Close's final checkpoint to persist.
func (s *Server) RegisterEncoded(t *table.Table) error {
	name := t.Name()
	vt, ok := newVecTable(t)
	if !ok {
		return fmt.Errorf("serve: register %q: not an encoded int64 relation: %w", name, errs.ErrInvalidInput)
	}
	s.reg.Histogram("serve.vec_compression_ratio").Record(vt.ratio())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: register %q: %w", name, errs.ErrClosed)
	}
	if s.st != nil {
		if err := s.st.Put(t); err != nil {
			return fmt.Errorf("serve: register %q: %w", name, err)
		}
	}
	s.tables[name] = vt
	return nil
}

// tenantInc bumps one tenant-dimension counter (serve.tenant.<id>.<metric>);
// Health finds the tenant by that key. No-op for the empty (unattributed)
// tenant.
func (s *Server) tenantInc(tenant, metric string) {
	if tenant != "" {
		s.reg.Counter(tenantPrefix + tenant + "." + metric).Inc()
	}
}

// SetTenantMemCap caps the named tenant's share of the server's memory
// budget: reservations for that tenant's requests fail with
// ErrMemoryPressure once the tenant's in-use bytes would pass the cap, even
// while the global budget has headroom (see mem.Governor.SetTenantCap).
// A zero or negative cap removes the tenant's cap. No-op when memory
// governance is off.
func (s *Server) SetTenantMemCap(tenant string, bytes int64) {
	s.gov.SetTenantCap(tenant, bytes)
}

// lookup returns the table registered under name, faulting cold-tier
// tables in from the durable store on a miss.
func (s *Server) lookup(ctx context.Context, name string) (*vecTable, bool) {
	s.mu.RLock()
	vt, ok := s.tables[name]
	s.mu.RUnlock()
	if ok || s.st == nil {
		return vt, ok
	}
	return s.loadCold(ctx, name)
}

// loadCold faults one cold-tier table in from the durable store: the load
// pays the machine's flash-bandwidth price (recorded, not charged to the
// triggering request — the warmed table serves every later request), and
// the encoded table is registered so the next lookup hits memory.
func (s *Server) loadCold(ctx context.Context, name string) (*vecTable, bool) {
	if s.st.Tier(name) == "" {
		return nil, false // not a stored table either
	}
	vt, cycles, err := s.loadStored(ctx, name)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	// A racing loadCold may have won; keep the first registration so
	// in-flight batches and this lookup agree on one table.
	if prior, ok := s.tables[name]; ok {
		return prior, true
	}
	s.tables[name] = vt
	s.reg.Counter("serve.cold_loads").Inc()
	s.reg.Histogram("serve.cold_load_cycles").Record(cycles)
	return vt, true
}

// validate rejects malformed requests before they consume queue space.
func (s *Server) validate(ctx context.Context, req Request) error {
	switch req.Priority {
	case "", PriorityInteractive, PriorityBatch:
	default:
		return fmt.Errorf("serve: unknown priority %q: %w", req.Priority, errs.ErrInvalidInput)
	}
	switch req.Op {
	case OpScan:
		vt, ok := s.lookup(ctx, req.Table)
		if !ok {
			return fmt.Errorf("serve: unknown table %q: %w", req.Table, errs.ErrInvalidInput)
		}
		return req.Query.Validate(len(vt.cols))
	case OpJoin:
		switch req.Algorithm {
		case "", "auto", join.AlgNPO, join.AlgRadix:
		default:
			return fmt.Errorf("serve: unknown join algorithm %q: %w", req.Algorithm, errs.ErrInvalidInput)
		}
		return req.Join.Validate()
	case OpGroupSum:
		if len(req.Keys) != len(req.Vals) {
			return fmt.Errorf("serve: keys/vals length mismatch: %d vs %d: %w", len(req.Keys), len(req.Vals), errs.ErrInvalidInput)
		}
		switch req.Strategy {
		case agg.StrategyGlobal, agg.StrategyLocalMerge, agg.StrategyRadix:
			return nil
		default:
			return fmt.Errorf("serve: unknown aggregation strategy %q: %w", req.Strategy, errs.ErrInvalidInput)
		}
	case OpQ1, OpQ6:
		if req.Lineitem == nil {
			return fmt.Errorf("serve: %s needs a lineitem table: %w", req.Op, errs.ErrInvalidInput)
		}
		return nil
	default:
		return fmt.Errorf("serve: unknown op %q: %w", req.Op, errs.ErrInvalidInput)
	}
}

// Submit enqueues one request and blocks until its response, the context's
// end, or rejection. A full intake queue fails fast with ErrOverloaded; a
// closed server with ErrClosed. If ctx ends while the request is queued the
// request is dropped at dispatch; if it ends mid-execution the operation
// stops at the next morsel boundary. In both cases Submit returns the
// context's error.
func (s *Server) Submit(ctx context.Context, req Request) (Response, error) {
	if err := s.validate(ctx, req); err != nil {
		s.reg.Counter("serve.invalid").Inc()
		s.tenantInc(req.Tenant, "invalid")
		return Response{}, err
	}
	// Degraded mode: shed everything but scans while the breaker is open.
	// Scans stay admitted — they run on the reduced worker budget.
	if s.brk != nil && req.Op != OpScan && !s.brk.Allow(time.Now()) {
		s.reg.Counter("serve.shed").Inc()
		s.tenantInc(req.Tenant, "shed")
		return Response{}, fmt.Errorf("serve: circuit open, %s shed: %w", req.Op, errs.ErrDegraded)
	}
	// Memory admission: a join/aggregate request must win its reservation
	// before it may queue — admission considers memory, not just queue
	// depth. A budget too full to grant one sheds the request with
	// ErrMemoryPressure (retryable: pressure subsides as running queries
	// release). Scans reserve nothing: their state is streaming, not a
	// table. Q1/Q6 run single-threaded engines with no governed state.
	// Tenant-labelled requests reserve against their tenant's cap as well as
	// the global budget, so one tenant cannot drain the whole pool.
	var resv *mem.Reservation
	if s.gov != nil && (req.Op == OpJoin || req.Op == OpGroupSum) {
		var err error
		resv, err = s.gov.ReserveFor(req.Tenant, 0)
		if err != nil {
			s.reg.Counter("serve.mem_shed").Inc()
			s.tenantInc(req.Tenant, "mem_shed")
			return Response{}, fmt.Errorf("serve: %s shed at admission: %w", req.Op, err)
		}
	}
	p := &pending{ctx: ctx, req: req, enq: time.Now(), done: make(chan outcome, 1), resv: resv}
	// The trace (if this request is sampled) must be rooted before the
	// request enters the intake queue: the dispatcher reads the spans
	// concurrently the moment the send succeeds.
	p.span = s.opts.Trace.Start("request:" + string(req.Op))
	if req.Tenant != "" {
		p.span.SetAttr("tenant", req.Tenant)
	}
	if req.Priority.batchClass() {
		p.span.SetAttr("priority", "batch")
	}
	if req.TraceID != "" {
		p.span.SetAttr("trace_id", req.TraceID)
	}
	p.queueSpan = p.span.Child("queue")

	// Batch-priority requests queue in their own bounded lane; a full lane
	// rejects without consuming interactive headroom.
	lane := s.intake
	if req.Priority.batchClass() {
		lane = s.intakeLo
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		p.resv.Release()
		p.span.SetAttr("status", "closed")
		p.queueSpan.End()
		p.span.End()
		return Response{}, fmt.Errorf("serve: submit: %w", errs.ErrClosed)
	}
	select {
	case lane <- p:
		s.mu.RUnlock()
		s.reg.Counter("serve.admitted").Inc()
		s.tenantInc(req.Tenant, "admitted")
		s.reg.Gauge("serve.queue_depth").Set(int64(len(s.intake) + len(s.intakeLo)))
	default:
		s.mu.RUnlock()
		p.resv.Release()
		s.reg.Counter("serve.rejected").Inc()
		s.tenantInc(req.Tenant, "rejected")
		p.span.SetAttr("status", "rejected")
		p.queueSpan.End()
		p.span.End()
		return Response{}, fmt.Errorf("serve: %s intake queue full (%d deep): %w", req.Priority.Lane(), s.opts.QueueDepth, errs.ErrOverloaded)
	}

	select {
	case out := <-p.done:
		return out.resp, out.err
	case <-ctx.Done():
		// The request may still be dispatched; the dispatcher will observe
		// the dead context and account it then.
		return Response{}, ctx.Err()
	}
}

// Close stops intake and drains: queued requests are still served, the
// background checkpointer and replay stop, then the server's goroutines
// exit. On a durable server, one final checkpoint flushes every staged
// table after the drain, so a cleanly-closed server restarts with nothing
// to lose; its error (if any) is Close's error. Safe to call once; further
// calls and further Submits return ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: close: %w", errs.ErrClosed)
	}
	s.closed = true
	close(s.intake)
	close(s.intakeLo)
	s.mu.Unlock()
	if s.stopc != nil {
		close(s.stopc)
	}
	s.wg.Wait()
	if s.st != nil {
		// The drain is over and nothing mutates the table set anymore; a
		// nil-done lifetimeCtx (never cancelled) is the right scope for the
		// shutdown flush.
		if _, err := s.Checkpoint(lifetimeCtx{}); err != nil {
			return fmt.Errorf("serve: close flush: %w", err)
		}
	}
	return nil
}

// newSched builds one scheduler for one operation, carrying the server's
// fault injector, resilience policy, and the request's memory reservation.
func (s *Server) newSched(workers int, resv *mem.Reservation) (*sched.Scheduler, error) {
	return sched.New(s.machine, sched.Options{
		Workers:            workers,
		Stealing:           true,
		Inject:             s.opts.Faults,
		Mem:                resv,
		IsolatePanics:      s.opts.IsolatePanics,
		StragglerThreshold: s.opts.StragglerThreshold,
		BlockSize:          s.opts.SchedBlockSize,
	})
}

// retryable classifies errors the retry loop acts on: transient morsel
// failures, worker panics, and memory pressure (which subsides as concurrent
// queries release their reservations). Validation and context errors are the
// client's problem; a simulated OOM kill is fatal by definition.
func retryable(err error) bool {
	return errors.Is(err, errs.ErrTransient) || errors.Is(err, errs.ErrWorkerPanic) ||
		errors.Is(err, errs.ErrMemoryPressure)
}

// backoff returns the sleep before retry attempt+1: exponential in the
// attempt with full jitter, capped at 32× the base.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.opts.RetryBackoff << attempt
	if max := 32 * s.opts.RetryBackoff; d > max {
		d = max
	}
	s.rngMu.Lock()
	j := s.rng.Float64()
	s.rngMu.Unlock()
	return d/2 + time.Duration(j*float64(d/2))
}

// withRetry runs op up to 1+MaxRetries times, sleeping an exponentially
// backed-off, jittered interval between attempts. Only retryable failures
// re-run; ctx ending stops the loop. Retries are annotated onto sp (nil-safe)
// and each backoff sleep is a "retry-backoff" child span, so a trace
// decomposes a slow request into execution vs waiting-to-retry.
func (s *Server) withRetry(ctx context.Context, sp *trace.Span, op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || attempt >= s.opts.MaxRetries || !retryable(err) || ctx.Err() != nil {
			break
		}
		d := s.backoff(attempt)
		s.reg.Counter("serve.retries").Inc()
		s.reg.Histogram("serve.retry_backoff_ms").Record(float64(d.Microseconds()) / 1000)
		sp.Event("attempt " + strconv.Itoa(attempt+1) + " failed (" + err.Error() + "); retrying after " + d.String())
		bs := sp.Child("retry-backoff")
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
			bs.End()
		case <-ctx.Done():
			timer.Stop()
			bs.End()
			return fmt.Errorf("serve: retry abandoned: %w", ctx.Err())
		}
	}
	if err != nil && retryable(err) && s.opts.MaxRetries > 0 {
		s.reg.Counter("serve.retry_exhausted").Inc()
	}
	return err
}

// recordSched accumulates one schedule's fault handling into the server's
// counters. runErr is the schedule's outcome: a run that failed by
// surfacing a worker panic did NOT recover that final panic, so it is
// excluded from serve.panics_recovered (any earlier panics in the same run
// were absorbed by isolation and do count).
func (s *Server) recordSched(fs sched.FaultStats, runErr error) {
	recovered := fs.Panics
	if runErr != nil && errors.Is(runErr, errs.ErrWorkerPanic) {
		recovered--
	}
	if recovered > 0 {
		s.reg.Counter("serve.panics_recovered").Add(int64(recovered))
	}
	if fs.Redispatched > 0 {
		s.reg.Counter("serve.redispatched").Add(int64(fs.Redispatched))
	}
	if fs.StragglersRetired > 0 {
		s.reg.Counter("serve.stragglers_retired").Add(int64(fs.StragglersRetired))
	}
	if fs.CoresLost > 0 {
		s.reg.Counter("serve.cores_lost").Add(int64(fs.CoresLost))
	}
}

// recordPhases records a multi-phase operation's fault stats. Only the last
// phase can have surfaced opErr — earlier phases completed.
func (s *Server) recordPhases(phases []sched.Result, opErr error) {
	for i, ph := range phases {
		if i == len(phases)-1 {
			s.recordSched(ph.FaultStats, opErr)
		} else {
			s.recordSched(ph.FaultStats, nil)
		}
	}
}

// batch is the scan batch under collection: requests against one table
// that will share a single block-major pass. workers is the simulated-core
// budget the dispatcher counted out for it; degraded records that the
// breaker was open when it was placed; lo that every member is batch-class.
type batch struct {
	table    string
	vt       *vecTable
	reqs     []*pending
	workers  int
	lo       bool
	degraded bool
}

// dispatch is the loop around the dispatcher (dispatch.go) and the only code
// that touches the lanes, the released channel and executor goroutines: it
// turns receives into events and starts into goroutines, and blocks nowhere
// but its own select. It reads the interactive lane before the batch lane,
// reads neither while a unit waits for its floor and not the batch lane while
// batch work is parked, and steps every release already sent before it steps
// an arrival or idle.
func (s *Server) dispatch() {
	defer s.wg.Done()
	d := newDispatcher(s.opts)
	hi, lo := s.intake, s.intakeLo
	for hi != nil || lo != nil || !d.drained() {
		hiR, loR := s.lanes(d, hi, lo)
		var p *pending
		var ok, fromLo bool
		select {
		case p, ok = <-hiR:
		default:
			select {
			case p, ok = <-loR:
				fromLo = true
			default:
				s.drain(d) // an open batch widens to every core already returned
				s.step(d, event{kind: evIdle, degraded: s.degraded()})
				hiR, loR = s.lanes(d, hi, lo)
				select {
				case ev := <-s.released:
					s.step(d, ev)
					continue
				case p, ok = <-hiR:
				case p, ok = <-loR:
					fromLo = true
				}
			}
		}
		// Releases first: an executor sends its release before it replies, so
		// every release behind this arrival is already queued. Stepping them
		// first is what lets a client's next request see the cores its last one
		// returned. A release never closes a lane reads() had opened.
		s.drain(d)
		switch {
		case ok:
			s.admit(d, p)
		case fromLo:
			lo = nil
		default:
			hi = nil
		}
		if !ok && hi == nil && lo == nil {
			s.step(d, event{kind: evClose, degraded: s.degraded()})
		}
	}
}

// drain steps every release already sent.
func (s *Server) drain(d *dispatcher) {
	for {
		select {
		case ev := <-s.released:
			s.step(d, ev)
		default:
			return
		}
	}
}

// lanes returns the lanes d lets the loop read; nil never receives.
func (s *Server) lanes(d *dispatcher, hi, lo chan *pending) (chan *pending, chan *pending) {
	rhi, rlo := d.reads()
	if !rhi {
		hi = nil
	}
	if !rlo {
		lo = nil
	}
	return hi, lo
}

// admit is the loop's half of an arrival: the queue metrics, the
// dropped-before-dispatch check and, for a scan that opens a batch, the table
// lookup. Then the dispatcher steps it.
func (s *Server) admit(d *dispatcher, p *pending) {
	s.reg.Gauge("serve.queue_depth").Set(int64(len(s.intake) + len(s.intakeLo)))
	p.queueSpan.End()
	s.reg.Histogram("serve.queue_wait_ms").Record(float64(time.Since(p.enq).Microseconds()) / 1000)
	if err := p.ctx.Err(); err != nil {
		s.finish(p, Response{}, fmt.Errorf("serve: dropped before dispatch: %w", err))
		return
	}
	ev := event{kind: evArrive, p: p, degraded: s.degraded()}
	if p.req.Op == OpScan {
		if d.open == nil || d.open.table != p.req.Table {
			vt, ok := s.lookup(p.ctx, p.req.Table)
			if !ok { // table dropped since validation
				s.finish(p, Response{}, fmt.Errorf("serve: unknown table %q: %w", p.req.Table, errs.ErrInvalidInput))
				return
			}
			ev.vt = vt
		}
		// batch-assembly and serve.batch_wait_ms: joining → pass has its cores.
		p.batchSpan = p.span.Child("batch-assembly")
		p.joined = time.Now()
	}
	s.step(d, ev)
}

// step applies ev, publishes serve.cores_free and hands each start to an
// executor goroutine on the cores the step counted out.
func (s *Server) step(d *dispatcher, ev event) {
	starts := d.step(ev)
	s.coresFree.Set(int64(d.free))
	for _, st := range starts {
		s.wg.Add(1)
		if st.b == nil {
			go s.runOne(st.p, st.workers, st.lo)
			continue
		}
		if st.b.degraded {
			s.reg.Counter("serve.degraded_scans").Inc()
		}
		go s.runBatch(st.b)
	}
}

func (s *Server) degraded() bool { return s.brk != nil && s.brk.Degraded() }

// runBatch executes one shared block-major pass for every live request of the
// batch and distributes per-query results. The modeled cost attributed to
// each request is the batch makespan divided by the batch size. The cores go
// back before any reply, or a client's next request is modeled on leftovers.
func (s *Server) runBatch(b *batch) {
	defer s.wg.Done()
	defer func() {
		s.released <- event{kind: evRelease, n: b.workers, batchClass: b.lo}
		for _, p := range b.reqs {
			p.done <- p.out
		}
	}()
	if c := s.testHold; c != nil {
		<-c
	}

	live := make([]*pending, 0, len(b.reqs))
	batchWait := s.reg.Histogram("serve.batch_wait_ms")
	for _, p := range b.reqs {
		p.batchSpan.End() // assembly is over: the pass has its cores
		batchWait.Record(float64(time.Since(p.joined).Microseconds()) / 1000)
		if err := p.ctx.Err(); err != nil {
			s.settle(p, Response{}, fmt.Errorf("serve: dropped from batch: %w", err))
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	qs := make([]scan.Query, len(live))
	for i, p := range live {
		qs[i] = p.req.Query
	}
	var sums []int64
	var schedRes sched.Result
	// The batch runs for all its members; individual deadlines were honoured
	// at collection time. Batch members share fate from here, including
	// retries: a transient morsel failure re-runs the whole pass. Cycles
	// burned by failed attempts are real machine work and stay charged to
	// the batch — the amortized cost reports what the request actually cost,
	// not just its final successful pass.
	var burned float64
	// One member — the first — is the trace leader: its per-attempt "execute"
	// span hosts the shared pass's full span tree (vec-scan, per-worker
	// breakdown) and carries the whole batch makespan. The other members get
	// one "execute" span bracketing the shared execution (their request IS
	// waiting on that pass, retries included) with their amortized share of
	// the cycles — every trace decomposes, without N copies of the subtree.
	leader := live[0]
	execs := make([]*trace.Span, len(live))
	for i, p := range live[1:] {
		execs[i+1] = p.span.Child("execute")
	}
	// The shared pass serves every member of the batch, so it must not die
	// with any single member's context — but severing it from the leader
	// entirely (context.Background) would also drop the leader's values.
	// WithoutCancel keeps the values and detaches only cancellation.
	passCtx := context.WithoutCancel(leader.ctx)
	err := s.withRetry(passCtx, leader.span, func() error {
		sch, err := s.newSched(b.workers, nil) // scans are streaming: no governed state
		if err != nil {
			return err
		}
		exec := leader.span.Child("execute")
		sums, schedRes, err = s.vecSharedScan(trace.NewContext(passCtx, exec), b.vt, qs, sch)
		exec.AddCycles(schedRes.MakespanCycles)
		exec.End()
		s.recordSched(schedRes.FaultStats, err)
		if err != nil {
			burned += schedRes.MakespanCycles
		}
		return err
	})
	// Even a failed batch reports the cycles it burned, so clients (and the
	// chaos experiment) can account the cost of failure.
	resp := Response{Cost: hw.Cost{SimCycles: burned / float64(len(live))}}
	var batchSize string
	if err == nil {
		resp.SimCycles = (schedRes.MakespanCycles + burned) / float64(len(live))
		resp.BatchSize, batchSize = len(live), strconv.Itoa(len(live))
		s.reg.Histogram("serve.batch_size").Record(float64(len(live)))
		s.reg.Histogram("serve.cycles_per_query").Record(resp.SimCycles)
	}
	for i, p := range live {
		execs[i].AddCycles(resp.SimCycles)
		execs[i].End()
		if err == nil {
			p.span.SetAttr("batch_size", batchSize)
			resp.Sum = sums[i]
		}
		s.settle(p, resp, err)
	}
}

// runOne executes one non-batchable request on its reserved cores, returned
// (like runBatch's) before it answers. batchClass records which class the cores
// were acquired under, so the release keeps the batch hold accounting straight.
func (s *Server) runOne(p *pending, workers int, batchClass bool) {
	defer s.wg.Done()
	defer func() {
		s.released <- event{kind: evRelease, n: workers, batchClass: batchClass}
		p.done <- p.out
	}()
	if c := s.testHold; c != nil {
		<-c
	}
	if err := p.ctx.Err(); err != nil {
		s.settle(p, Response{}, fmt.Errorf("serve: dropped before execution: %w", err))
		return
	}
	var resp Response
	err := s.withRetry(p.ctx, p.span, func() error {
		exec := p.span.Child("execute")
		var err error
		resp, err = s.execute(trace.NewContext(p.ctx, exec), p.req, workers, p.resv)
		exec.AddCycles(resp.SimCycles)
		exec.End()
		return err
	})
	if err == nil {
		s.reg.Histogram("serve.cycles_per_query").Record(resp.SimCycles)
	}
	s.settle(p, resp, err)
}

// execute runs one join/aggregate/query request under the client's context.
// resv is the request's memory reservation (nil when ungoverned); join and
// aggregate operators charge their table state against it and spill when a
// charge is denied.
func (s *Server) execute(ctx context.Context, req Request, workers int, resv *mem.Reservation) (Response, error) {
	switch req.Op {
	case OpJoin:
		sch, err := s.newSched(workers, resv)
		if err != nil {
			return Response{}, err
		}
		algo := req.Algorithm
		if algo == "" || algo == "auto" {
			algo = join.AutoAlgorithm(s.machine, len(req.Join.BuildKeys))
		}
		var res join.ParallelResult
		if algo == join.AlgRadix {
			res, err = join.ParallelRadix(ctx, req.Join, join.RadixOptions{}, sch, s.machine, 0)
		} else {
			res, err = join.ParallelNPO(ctx, req.Join, sch, 0)
		}
		s.recordPhases(res.Phases, err)
		if err != nil {
			return Response{}, err
		}
		return Response{Cost: hw.Cost{SimCycles: res.MakespanCycles}, BatchSize: 1, Matches: res.Matches, Checksum: res.Checksum, Spilled: res.Spilled, SpillBytes: res.SpillBytes}, nil
	case OpGroupSum:
		sch, err := s.newSched(workers, resv)
		if err != nil {
			return Response{}, err
		}
		res, err := agg.Parallel(ctx, req.Keys, req.Vals, req.Strategy, sch, s.machine, 0)
		s.recordPhases(res.Phases, err)
		if err != nil {
			return Response{}, err
		}
		return Response{Cost: hw.Cost{SimCycles: res.MakespanCycles}, BatchSize: 1, Groups: res.Groups, Spilled: res.Spilled, SpillBytes: res.SpillBytes}, nil
	case OpQ1:
		acct := hw.NewAccount(s.machine, hw.DefaultContext())
		rows, err := queries.Q1(req.Engine, req.Lineitem, queries.DefaultQ1(), acct)
		if err != nil {
			return Response{}, err
		}
		return Response{Cost: hw.Cost{SimCycles: acct.TotalCycles()}, BatchSize: 1, Q1Rows: rows}, nil
	case OpQ6:
		acct := hw.NewAccount(s.machine, hw.DefaultContext())
		rev, err := queries.Q6(req.Engine, req.Lineitem, queries.DefaultQ6(), acct)
		if err != nil {
			return Response{}, err
		}
		return Response{Cost: hw.Cost{SimCycles: acct.TotalCycles()}, BatchSize: 1, Revenue: rev}, nil
	default:
		return Response{}, fmt.Errorf("serve: unknown op %q: %w", req.Op, errs.ErrInvalidInput)
	}
}

// finish settles a request that holds no cores and answers it.
func (s *Server) finish(p *pending, resp Response, err error) {
	s.settle(p, resp, err)
	p.done <- p.out
}

// settle accounts the outcome and leaves it in p.out, for its executor to send
// once the cores are back: context-terminated requests count as deadline-
// exceeded, successful ones record latency and close the breaker's failure
// streak, machine-level failures feed the breaker. Every admitted request ends
// here, so it also settles the memory reservation: spill and peak, then release.
func (s *Server) settle(p *pending, resp Response, err error) {
	tenant := p.req.Tenant
	switch {
	case err == nil:
		s.reg.Counter("serve.completed").Inc()
		lat := float64(time.Since(p.enq).Microseconds()) / 1000
		s.reg.Histogram("serve.latency_ms").Record(lat)
		if tenant != "" {
			s.tenantInc(tenant, "completed")
			s.reg.Histogram(tenantPrefix + tenant + ".latency_ms").Record(lat)
			s.reg.Histogram(tenantPrefix + tenant + ".cycles_per_query").Record(resp.SimCycles)
		}
		p.span.SetAttr("status", "ok")
		if s.brk != nil {
			s.brk.OnSuccess()
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter("serve.deadline_exceeded").Inc()
		s.tenantInc(tenant, "deadline_exceeded")
		p.span.SetAttr("status", "deadline")
	default:
		s.reg.Counter("serve.failed").Inc()
		s.tenantInc(tenant, "failed")
		p.span.SetAttr("status", "failed")
		if errors.Is(err, errs.ErrOOMKilled) {
			s.reg.Counter("serve.oom_killed").Inc()
		}
		// Memory pressure is the governor's domain, not the machine's: it
		// does not feed the breaker. Tripping into degraded mode over a full
		// budget would shed the very load whose completion frees it.
		if s.brk != nil && retryable(err) && !errors.Is(err, errs.ErrMemoryPressure) {
			if s.brk.OnFailure(time.Now()) {
				s.reg.Counter("serve.breaker_trips").Inc()
			}
		}
	}
	if p.resv != nil {
		if spills, spillB := p.resv.Spills(); spills > 0 {
			s.reg.Counter("serve.spills").Add(spills)
			s.reg.Counter("serve.spill_bytes").Add(spillB)
			if tenant != "" {
				s.reg.Counter(tenantPrefix + tenant + ".spills").Add(spills)
				s.reg.Counter(tenantPrefix + tenant + ".spill_bytes").Add(spillB)
			}
			p.span.SetAttr("spilled", "true")
		}
		p.span.AddBytes(p.resv.PeakBytes())
		p.resv.Release()
		gs := s.gov.Stats()
		s.reg.Gauge("serve.mem_in_use").Set(gs.InUseBytes)
		s.reg.Gauge("serve.mem_reservations").Set(int64(gs.Reservations))
	}
	// Close out the request's trace. queueSpan/batchSpan ends are idempotent
	// no-ops on the normal path; they matter for requests dropped before
	// dispatch or mid-assembly.
	p.queueSpan.End()
	p.batchSpan.End()
	p.span.End()
	p.out = outcome{resp: resp, err: err}
}

// Health is a point-in-time snapshot of the server's resilience state.
type Health struct {
	// State is "ok" or "degraded" (circuit breaker open).
	State string
	// QueueDepth is the current intake backlog; ConsecutiveFailures the
	// breaker's failure streak.
	QueueDepth          int
	ConsecutiveFailures int

	// Admission and outcome counters.
	Admitted, Completed, Failed, Rejected, Shed, DeadlineExceeded int64

	// Resilience counters: retry attempts, operations that exhausted their
	// retry budget, breaker trips, morsels re-dispatched away from sick
	// workers, recovered panics, stragglers retired, cores lost.
	Retries, RetryExhausted, BreakerTrips       int64
	Redispatched, PanicsRecovered               int64
	StragglersRetired, CoresLost, DegradedScans int64

	// Memory-governance counters: requests shed at admission for lack of
	// budget, operator spill decisions and simulated spill-tier bytes, and
	// simulated OOM kills (KillOnOverage mode only).
	MemShed, Spills, SpillBytes, OOMKilled int64

	// Memory is the governor's snapshot (zero when governance is off).
	Memory mem.Stats

	// Faults counts injected faults by class, from the armed injector's log
	// (nil when no injector is armed).
	Faults map[string]int64

	// Durability state (all zero on a memory-only server). Recovery is the
	// store's crash-recovery report (manifest version restored, fallback and
	// corruption counts, bytes validated); LastCheckpoint the most recent
	// checkpoint's shape. Checkpoints/CheckpointFailures/CheckpointMemShed
	// count background and explicit checkpoint outcomes; ColdLoads and
	// ReplayedTables count tables faulted in from the flash tier and tables
	// registered from the store at boot.
	Durable                         bool
	Recovery                        store.RecoveryStats
	LastCheckpoint                  store.CheckpointStats
	StoreVersion                    uint64
	Checkpoints, CheckpointFailures int64
	CheckpointMemShed, ColdLoads    int64
	ReplayedTables                  int64

	// VecPasses counts shared-scan passes; the block counters decompose
	// their outcomes (zone-map prunes, O(1) precomputed-sum folds, payload
	// decodes).
	VecPasses                                      int64
	VecBlocksPruned, VecFastSums, VecBlocksScanned int64

	// Tenants breaks the admission/outcome counters down by tenant id, for
	// every tenant that has submitted at least one labelled request. Nil
	// when no request carried a tenant.
	Tenants map[string]TenantHealth
}

// TenantHealth is one tenant's slice of the server's counters and latency
// distribution. It is assembled from the per-tenant metric dimension — no
// mutexed state is copied to produce it.
type TenantHealth struct {
	// Admission and outcome counters for this tenant's requests.
	Admitted, Completed, Failed, Rejected, Shed, MemShed int64
	DeadlineExceeded, Invalid                            int64

	// Spill accounting for this tenant's governed operators.
	Spills, SpillBytes int64

	// LatencyMs summarizes the tenant's completed-request latency;
	// CyclesPerQuery the modeled cost distribution.
	LatencyMs, CyclesPerQuery metrics.HistogramStats

	// MemInUseBytes and MemCapBytes report the tenant's position against
	// its memory cap (both 0 when the governor carries no cap for it).
	MemInUseBytes, MemCapBytes int64
}

// HealthFromCounters is the counter half of Health: every field that is a
// monotonic count, read from a counter snapshot of one server's registry — or
// of several summed key by key, which is how the shard tier builds its view.
// The registry is the only counter store, so this mapping is the only place a
// Health counter field is tied to its series. Tenants is rebuilt from the
// serve.tenant.<id>.<metric> keys (metric names carry no dot, so the id is
// everything up to the last one).
func HealthFromCounters(c map[string]int64) Health {
	h := Health{
		Admitted:           c["serve.admitted"],
		Completed:          c["serve.completed"],
		Failed:             c["serve.failed"],
		Rejected:           c["serve.rejected"],
		Shed:               c["serve.shed"],
		DeadlineExceeded:   c["serve.deadline_exceeded"],
		Retries:            c["serve.retries"],
		RetryExhausted:     c["serve.retry_exhausted"],
		BreakerTrips:       c["serve.breaker_trips"],
		Redispatched:       c["serve.redispatched"],
		PanicsRecovered:    c["serve.panics_recovered"],
		StragglersRetired:  c["serve.stragglers_retired"],
		CoresLost:          c["serve.cores_lost"],
		DegradedScans:      c["serve.degraded_scans"],
		MemShed:            c["serve.mem_shed"],
		Spills:             c["serve.spills"],
		SpillBytes:         c["serve.spill_bytes"],
		OOMKilled:          c["serve.oom_killed"],
		Checkpoints:        c["serve.checkpoints"],
		CheckpointFailures: c["serve.checkpoint_failures"],
		CheckpointMemShed:  c["serve.checkpoint_mem_shed"],
		ColdLoads:          c["serve.cold_loads"],
		ReplayedTables:     c["serve.replayed_tables"],
		VecPasses:          c["serve.vec_passes"],
		VecBlocksPruned:    c["serve.vec_blocks_pruned"],
		VecFastSums:        c["serve.vec_block_fast_sums"],
		VecBlocksScanned:   c["serve.vec_blocks_scanned"],
	}
	for k := range c {
		rest, ok := strings.CutPrefix(k, tenantPrefix)
		dot := strings.LastIndexByte(rest, '.')
		if !ok || dot <= 0 {
			continue
		}
		if _, seen := h.Tenants[rest[:dot]]; seen {
			continue
		}
		if h.Tenants == nil {
			h.Tenants = make(map[string]TenantHealth)
		}
		h.Tenants[rest[:dot]] = TenantHealthFromCounters(c, rest[:dot])
	}
	return h
}

// tenantPrefix starts every per-tenant series: serve.tenant.<id>.<metric>.
const tenantPrefix = "serve.tenant."

// TenantHealthFromCounters is the counter half of one tenant's breakdown,
// over the same snapshot HealthFromCounters reads.
func TenantHealthFromCounters(c map[string]int64, tenant string) TenantHealth {
	p := tenantPrefix + tenant + "."
	return TenantHealth{
		Admitted:         c[p+"admitted"],
		Completed:        c[p+"completed"],
		Failed:           c[p+"failed"],
		Rejected:         c[p+"rejected"],
		Shed:             c[p+"shed"],
		MemShed:          c[p+"mem_shed"],
		DeadlineExceeded: c[p+"deadline_exceeded"],
		Invalid:          c[p+"invalid"],
		Spills:           c[p+"spills"],
		SpillBytes:       c[p+"spill_bytes"],
	}
}

// Health snapshots the server's resilience state: the counter view plus what
// no counter holds — breaker position and failure streak, queue depth, the
// governor, the fault injector's log, the store, and each tenant's latency
// distribution and memory position.
func (s *Server) Health() Health {
	h := HealthFromCounters(s.reg.Counters())
	h.State = "ok"
	h.QueueDepth = len(s.intake)
	h.Memory = s.gov.Stats()
	h.Faults = s.opts.Faults.CountsInt64()
	if s.brk != nil {
		consec, open, _ := s.brk.Snapshot()
		h.ConsecutiveFailures = consec
		if open {
			h.State = "degraded"
		}
	}
	if s.st != nil {
		h.Durable = true
		h.Recovery = s.st.Recovery()
		h.LastCheckpoint = s.st.LastCheckpoint()
		h.StoreVersion = s.st.Version()
	}
	for id, th := range h.Tenants {
		h.Tenants[id] = s.tenantLive(id, th, h.Memory)
	}
	return h
}

// TenantHealth returns one tenant's Health slice (zero for a tenant the
// server has never seen).
func (s *Server) TenantHealth(tenant string) TenantHealth {
	return s.tenantLive(tenant, TenantHealthFromCounters(s.reg.Counters(), tenant), s.gov.Stats())
}

// tenantLive fills the non-counter half of one tenant's breakdown: the
// per-tenant histograms and the tenant's position against its memory cap.
func (s *Server) tenantLive(tenant string, th TenantHealth, gs mem.Stats) TenantHealth {
	p := tenantPrefix + tenant + "."
	th.LatencyMs = s.reg.Histogram(p + "latency_ms").Stats()
	th.CyclesPerQuery = s.reg.Histogram(p + "cycles_per_query").Stats()
	if gs.TenantInUse != nil {
		th.MemInUseBytes = gs.TenantInUse[tenant]
		th.MemCapBytes = gs.TenantCaps[tenant]
	}
	return th
}
