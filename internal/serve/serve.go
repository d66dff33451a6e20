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
// A server armed with Options.Faults (see internal/fault) runs every
// operation on a scheduler that absorbs them: a transient morsel failure
// re-runs that morsel, a panicking worker retires and its morsels
// re-dispatch, and a straggler's claimed morsels move to healthy cores.
// The server itself retries nothing — one retry layer per fault: the
// scheduler re-runs a morsel, the shard router fails over and hedges across
// nodes, and a client resubmits on the wire's Retry-After. Health()
// snapshots the morsel re-runs, re-dispatches and fault-log state. A server
// has no circuit breaker either: a node that fails is failed over by the
// shard tier (internal/shard), which has no breaker of its own.
//
// With Options.Memory armed the server also governs memory (see
// internal/mem): a join/aggregate request opens a reservation once it holds
// cores, its operators charge hash-table state against it and degrade to a
// grace-hash spill plan when a charge is denied, and runOne records spill
// and peak footprint before releasing it. A request no spill plan fits
// fails with ErrMemoryPressure, counted as serve.mem_shed.
//
// With Options.Store armed the server is durable (see internal/store):
// registered tables are staged into the segment store, Checkpoint writes an
// atomically-committed manifest version while serving continues, and New
// registers every table the opened store already holds, so a restarted
// server answers from the moment New returns (recovery is store.Open's work).
// CheckpointInterval arms a background checkpointer whose segment staging
// buffers are charged against the memory governor, so durability work
// competes with queries under the same byte budget instead of around it.
//
// Per-server metrics (queue depth, batch sizes, latencies, modeled cycles
// per query, admission and resilience counters) are recorded in a
// metrics.Registry.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"hwstar/internal/agg"
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

// Validate reports an unknown priority with errs.ErrInvalidInput.
func (p Priority) Validate() error {
	switch p {
	case "", PriorityInteractive, PriorityBatch:
		return nil
	}
	return fmt.Errorf("serve: unknown priority %q: %w", p, errs.ErrInvalidInput)
}

// Request is one client query. Set Op and the fields of the matching group;
// the rest stay zero.
type Request struct {
	Op Op

	// Tenant labels the request with the submitting tenant's identity:
	// tenant attribution on trace spans and — when the memory governor
	// carries per-tenant caps — a tenant-scoped memory budget. Empty means
	// unattributed. Per-tenant counts are kept by the frontend, the one tier
	// that sees each tenant query once.
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
	// Lease, when non-nil, owns the pooled columns the inline inputs live in
	// (the server holds a reference from admission to settle), and a
	// group-sum's Response.Groups is taken from it: that map is valid until
	// the lease's last Release. Without a lease, Groups is the caller's.
	Lease *mem.Lease
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

	// Faults arms a fault injector on every scheduled operation, and with it
	// the scheduler's resilience: panic isolation, straggler re-dispatch (a
	// worker 3x slower per morsel than its peers) and in-place re-runs of a
	// morsel hit by a transient. Nil (the default) injects nothing and
	// schedules without any of them.
	Faults *fault.Injector

	// Memory arms the memory governor: a join or aggregate opens a
	// reservation when it starts to run, its operators charge their
	// hash-table state against the server-wide Memory.BudgetBytes and
	// degrade to the spill tier when a charge is denied, and a request whose
	// operator cannot run even spilled fails with ErrMemoryPressure. The
	// zero value disables governance. When Memory.Faults is nil the server's
	// own Faults injector drives allocation-failure injection, so one seed
	// replays compute and memory chaos together.
	Memory mem.Config

	// Trace arms query-lifecycle tracing: sampled requests record a span
	// tree (admit → queue → batch assembly → execute, morsel re-runs as
	// events under execute) carrying wall time and simulated cycles,
	// retained in the tracer's bounded ring. Nil disables tracing at zero
	// cost.
	Trace *trace.Tracer

	// SchedBlockSize is how many morsels a worker claims per dispatch in
	// every operation this server runs (see sched.Options.BlockSize).
	SchedBlockSize int

	// Store arms the durable storage tier: an opened (and therefore already
	// crash-recovered) segment store. Tables registered on the server are
	// staged into it, Checkpoint persists them as an atomically-committed
	// manifest version, and New registers every stored table before it
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
	if o.CheckpointInterval > 0 && o.Store == nil {
		return o, fmt.Errorf("serve: checkpoint interval %s without a store: %w", o.CheckpointInterval, errs.ErrInvalidInput)
	}
	return o, nil
}

// pending is one admitted request waiting for its outcome. The spans are
// nil (no-op) when tracing is off or the request fell outside the sampling
// rate: span is the request's root, queueSpan covers enqueue → dispatch,
// batchSpan covers a scan's wait while its batch assembles, from joined on.
//
// It is pooled, on the rule that state goes back only once every party that
// can touch it has finished. Submit publishes p on a lane; from then on the
// dispatcher and one executor own it until the executor, after settle has
// written p.out, sends on done, and that send is the last touch. The receive
// in Submit is the happens-before edge that makes p.out readable; Submit then
// returns p to the pool. A Submit that gives up on ctx.Done leaves p to the
// GC instead, because its executor may still settle it and send. A p that
// was never published (closed server, full lane) goes back at once.
type pending struct {
	ctx    context.Context
	req    Request
	enq    time.Time
	joined time.Time
	out    outcome       // written by settle, read by Submit after done
	done   chan struct{} // capacity 1: the executor's one send never blocks

	span      *trace.Span
	queueSpan *trace.Span
	batchSpan *trace.Span
}

type outcome struct {
	resp Response
	err  error
}

var pendings = sync.Pool{New: func() any { return &pending{done: make(chan struct{}, 1)} }}

// release returns p, whose done is empty, to the pool. It is zeroed first
// but for done, so the pool pins no Request (no inline join or group-sum
// columns), context or span.
func (p *pending) release() {
	*p = pending{done: p.done}
	pendings.Put(p)
}

// requestSpanName is the root span's name for op, a constant for every op
// validate accepts, so Submit builds no string with tracing off.
func requestSpanName(op Op) string {
	switch op {
	case OpScan:
		return "request:scan"
	case OpJoin:
		return "request:join"
	case OpGroupSum:
		return "request:group-sum"
	case OpQ1:
		return "request:q1"
	case OpQ6:
		return "request:q6"
	}
	return "request:" + string(op)
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
	// scanScheds[w] is the scheduler of every scan pass on w cores. A scan
	// charges no reservation, so its scheduler depends on w alone and is
	// built once, in New.
	scanScheds []*sched.Scheduler

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
	s := &Server{
		machine:  m,
		opts:     opts,
		reg:      metrics.NewRegistry(),
		intake:   make(chan *pending, opts.QueueDepth),
		intakeLo: make(chan *pending, opts.QueueDepth),
		released: make(chan event, opts.Workers),
		tables:   make(map[string]*vecTable),
	}
	s.coresFree = s.reg.Gauge("serve.cores_free")
	s.coresFree.Set(int64(opts.Workers))
	s.scanScheds = make([]*sched.Scheduler, opts.Workers+1)
	for w := 1; w <= opts.Workers; w++ {
		if s.scanScheds[w], err = s.newSched(w, nil); err != nil {
			return nil, err
		}
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

// registerStored registers every table of the opened store — all resident
// after store.Open, so each Load is a map lookup. The store hands back the
// block streams it persisted, so a table is served as loaded — nothing is
// re-encoded.
func (s *Server) registerStored() error {
	for _, name := range s.st.Tables() {
		t, err := s.st.Load(lifetimeCtx{}, name)
		if err != nil {
			return err
		}
		vt, ok := newVecTable(t)
		if !ok {
			return fmt.Errorf("serve: stored table %q is not an encoded int64 relation: %w", name, errs.ErrCorrupted)
		}
		s.tables[name] = vt
		s.reg.Counter("serve.replayed_tables").Inc()
	}
	return nil
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
// the resident tables. When the memory governor is armed, the bytes the
// checkpoint holds (each segment's staging buffer, at most 64 KiB) are
// charged against the server's byte budget under the "_checkpoint" tenant:
// a budget too full to grant them fails the checkpoint with
// ErrMemoryPressure rather than blowing the budget, counted as
// serve.checkpoint_mem_shed, and the interval loop simply tries again next
// tick. Checkpoints are single-flight; a concurrent call blocks on the
// store's checkpoint lock.
func (s *Server) Checkpoint(ctx context.Context) (store.CheckpointStats, error) {
	if s.st == nil {
		return store.CheckpointStats{}, fmt.Errorf("serve: checkpoint without a store: %w", errs.ErrInvalidInput)
	}
	resv := s.gov.Reserve("_checkpoint")
	defer resv.Release()
	st, err := s.st.Checkpoint(ctx, resv)
	if err != nil {
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
// those (see RegisterEncoded). cols is not retained. The blocks' payload is
// leased: once a later Register replaces the table and its last reader lets
// go, the next encode writes into it.
func (s *Server) Register(name string, cols [][]int64) error {
	if _, err := scan.NewRelation(cols); err != nil {
		return err
	}
	l := mem.NewLease()
	defer l.Release() // the table's holders have taken their own references
	t, err := store.TableFromColsLeased(name, cols, l)
	if err != nil {
		return fmt.Errorf("serve: register %q: %w", name, err)
	}
	return s.registerEncoded(t, l)
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
// for Close's final checkpoint to persist. The caller keeps t's blocks: they
// are never recycled.
func (s *Server) RegisterEncoded(t *table.Table) error { return s.registerEncoded(t, nil) }

// registerEncoded registers t, whose payload l owns (nil: the caller's). The
// table map holds a reference to l while t is in it.
func (s *Server) registerEncoded(t *table.Table, l *mem.Lease) error {
	name := t.Name()
	vt, ok := newVecTable(t)
	if !ok {
		return fmt.Errorf("serve: register %q: not an encoded int64 relation: %w", name, errs.ErrInvalidInput)
	}
	vt.lease = l
	s.reg.Histogram("serve.vec_compression_ratio").Record(vt.ratio())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: register %q: %w", name, errs.ErrClosed)
	}
	if s.st != nil {
		if err := s.st.PutLeased(t, l); err != nil {
			return fmt.Errorf("serve: register %q: %w", name, err)
		}
	}
	l.Acquire()
	if prior, ok := s.tables[name]; ok {
		prior.lease.Release() // under the write lock: no lookup can find it now
	}
	s.tables[name] = vt
	return nil
}

// Drop removes the named table from the server and, on a durable server,
// from its store, so the next checkpoint's manifest omits it. A batch in
// flight finishes on the table it holds. The closed check, the store's
// drop and the removal are one critical section, as in registerEncoded.
// Unknown names wrap errs.ErrInvalidInput.
func (s *Server) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: drop %q: %w", name, errs.ErrClosed)
	}
	vt, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("serve: drop %q: unknown table: %w", name, errs.ErrInvalidInput)
	}
	if s.st != nil {
		s.st.Drop(name)
	}
	delete(s.tables, name)
	vt.lease.Release() // under the write lock: no lookup can find it now
	return nil
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

// lookup returns the table registered under name. The caller holds a
// reference to the table's lease and must release it.
func (s *Server) lookup(name string) (*vecTable, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vt, ok := s.tables[name]
	if ok {
		vt.lease.Acquire()
	}
	return vt, ok
}

// Stripe returns the table registered under name when no lease owns its
// blocks (RegisterEncoded's and the store's tables), so the caller may keep
// and share them: the shard tier copies a live replica's stripe onto a
// revived node this way. A table Register encoded is leased, and its blocks
// go back to the pool once replaced, so Stripe reports false for it.
func (s *Server) Stripe(name string) (*table.Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vt, ok := s.tables[name]
	if !ok || vt.lease != nil {
		return nil, false
	}
	return vt.t, true
}

// validate rejects malformed requests before they consume queue space.
func (s *Server) validate(ctx context.Context, req Request) error {
	if err := req.Priority.Validate(); err != nil {
		return err
	}
	switch req.Op {
	case OpScan:
		vt, ok := s.lookup(req.Table)
		if !ok {
			return fmt.Errorf("serve: unknown table %q: %w", req.Table, errs.ErrInvalidInput)
		}
		defer vt.lease.Release()
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
		return Response{}, err
	}
	p := pendings.Get().(*pending)
	p.ctx, p.req, p.enq = ctx, req, time.Now()
	req.Lease.Acquire() // the executor's reference, released in settle
	// The trace (if this request is sampled) must be rooted before the
	// request enters the intake queue: the dispatcher reads the spans
	// concurrently the moment the send succeeds.
	p.span = s.opts.Trace.Start(requestSpanName(req.Op))
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
		req.Lease.Release()
		p.span.SetAttr("status", "closed")
		p.queueSpan.End()
		p.span.End()
		p.release()
		return Response{}, fmt.Errorf("serve: submit: %w", errs.ErrClosed)
	}
	select {
	case lane <- p:
		s.mu.RUnlock()
		s.reg.Counter("serve.admitted").Inc()
		s.reg.Gauge("serve.queue_depth").Set(int64(len(s.intake) + len(s.intakeLo)))
	default:
		s.mu.RUnlock()
		req.Lease.Release()
		s.reg.Counter("serve.rejected").Inc()
		p.span.SetAttr("status", "rejected")
		p.queueSpan.End()
		p.span.End()
		p.release()
		return Response{}, fmt.Errorf("serve: %s intake queue full (%d deep): %w", req.Priority.Lane(), s.opts.QueueDepth, errs.ErrOverloaded)
	}

	select {
	case <-p.done:
		out := p.out
		p.release()
		return out.resp, out.err
	case <-ctx.Done():
		// The request may still be dispatched; the dispatcher will observe
		// the dead context and account it then. Its executor may still settle
		// p and send on done, so p is the GC's, not the pool's.
		return Response{}, ctx.Err()
	}
}

// Close stops the server as Kill does, then, on a durable server, flushes
// every staged table in one final checkpoint, so a cleanly-closed server
// restarts with nothing to lose; the flush's error (if any) is Close's
// error. Safe to call once; further calls and further Submits return
// ErrClosed.
func (s *Server) Close() error {
	if err := s.Kill(); err != nil {
		return err
	}
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

// Kill stops the server as a crash would, leaving its store as the last
// checkpoint left it: intake closes, the background checkpointer stops,
// queued requests drain through the executors, and nothing is flushed. A
// killed node's store may already belong to its successor, which a
// shutdown flush would overwrite. Safe to call once; further calls, Close
// after it and further Submits return ErrClosed.
func (s *Server) Kill() error {
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
	return nil
}

// newSched builds a scheduler carrying the server's fault injector and a
// memory reservation: one per join or aggregate, with the request's
// reservation, and, in New, one per scan worker count, with none. A server
// armed with faults also isolates panics and retires workers 3x slower per
// morsel than their peers: stragglers come only from the injector's skew,
// and an injected panic fires before the morsel body, so re-running its
// morsel elsewhere is safe. An unarmed server schedules with neither.
func (s *Server) newSched(workers int, resv *mem.Reservation) (*sched.Scheduler, error) {
	opts := sched.Options{
		Workers:   workers,
		Stealing:  true,
		Inject:    s.opts.Faults,
		Mem:       resv,
		BlockSize: s.opts.SchedBlockSize,
	}
	if s.opts.Faults != nil {
		opts.IsolatePanics, opts.StragglerThreshold = true, 3
	}
	return sched.New(s.machine, opts)
}

// recordSched accumulates one schedule's fault handling into the server's
// counters. runErr is the schedule's outcome: a run that failed by
// surfacing a worker panic did NOT recover that final panic, so it is
// excluded from serve.panics_recovered (any earlier panics in the same run
// were absorbed by isolation and do count). serve.retries counts the
// schedule's morsel re-runs.
func (s *Server) recordSched(fs sched.FaultStats, runErr error) {
	recovered := fs.Panics
	if runErr != nil && errors.Is(runErr, errs.ErrWorkerPanic) {
		recovered--
	}
	if recovered > 0 {
		s.reg.Counter("serve.panics_recovered").Add(int64(recovered))
	}
	if fs.TaskRetries > 0 {
		s.reg.Counter("serve.retries").Add(int64(fs.TaskRetries))
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
// budget the dispatcher counted out for it; lo that every member is
// batch-class. live, qs, execs and pass are runBatch's buffers.
//
// It is pooled on pending's rule: the dispatcher takes it in arrive and hands
// it to exactly one runBatch, which releases it after its last done send.
type batch struct {
	table   string
	vt      *vecTable
	reqs    []*pending
	workers int
	lo      bool

	live  []*pending
	qs    []scan.Query
	execs []*trace.Span
	pass  vecPass
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// newBatch returns an empty pooled batch over vt.
func newBatch(table string, vt *vecTable) *batch {
	b := batches.Get().(*batch)
	b.table, b.vt, b.lo = table, vt, true
	return b
}

// release drops b's reference to its table and returns b to the pool with
// its buffers' capacity, pinning no request, span or table.
func (b *batch) release() {
	b.vt.lease.Release()
	clear(b.reqs)
	clear(b.live)
	clear(b.execs)
	*b = batch{reqs: b.reqs[:0], live: b.live[:0], qs: b.qs[:0], execs: b.execs[:0], pass: vecPass{buf: b.pass.buf}}
	batches.Put(b)
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
				s.step(d, event{kind: evIdle})
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
			s.step(d, event{kind: evClose})
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
	ev := event{kind: evArrive, p: p}
	if p.req.Op == OpScan {
		if d.open == nil || d.open.table != p.req.Table {
			vt, ok := s.lookup(p.req.Table)
			if !ok { // table dropped since validation
				s.finish(p, Response{}, fmt.Errorf("serve: unknown table %q: %w", p.req.Table, errs.ErrInvalidInput))
				return
			}
			ev.vt = vt // its reference goes to the batch it opens
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
		go s.runBatch(st.b)
	}
}

// runBatch executes one shared block-major pass for every live request of the
// batch and distributes per-query results. The modeled cost attributed to
// each request is the batch makespan divided by the batch size. The cores go
// back before any reply, or a client's next request is modeled on leftovers.
func (s *Server) runBatch(b *batch) {
	defer s.wg.Done()
	defer func() {
		s.released <- event{kind: evRelease, n: b.workers, batchClass: b.lo}
		for _, p := range b.reqs {
			p.done <- struct{}{}
		}
		b.release()
	}()
	if c := s.testHold; c != nil {
		<-c
	}

	batchWait := s.reg.Histogram("serve.batch_wait_ms")
	for _, p := range b.reqs {
		p.batchSpan.End() // assembly is over: the pass has its cores
		batchWait.Record(float64(time.Since(p.joined).Microseconds()) / 1000)
		if err := p.ctx.Err(); err != nil {
			s.settle(p, Response{}, fmt.Errorf("serve: dropped from batch: %w", err))
			continue
		}
		b.live = append(b.live, p)
	}
	live := b.live
	if len(live) == 0 {
		return
	}
	for _, p := range live {
		b.qs = append(b.qs, p.req.Query)
	}
	// The batch runs for all its members; individual deadlines were honoured
	// at collection time. Batch members share fate from here: a pass whose
	// scheduler could not absorb a fault fails every member, and even a
	// failed pass reports the cycles it burned, so clients (and the chaos
	// experiment) can account the cost of failure.
	//
	// One member — the first — is the trace leader: its "execute" span hosts
	// the shared pass's full span tree (vec-scan with its morsel re-runs as
	// events, per-worker breakdown) and carries the whole batch makespan. The
	// other members get one "execute" span bracketing the shared execution
	// with their amortized share of the cycles — every trace decomposes,
	// without N copies of the subtree.
	leader := live[0]
	b.execs = append(b.execs, make([]*trace.Span, len(live))...)
	execs := b.execs
	for i, p := range live[1:] {
		execs[i+1] = p.span.Child("execute")
	}
	// The shared pass serves every member of the batch, so it must not die
	// with any single member's context — but severing it from the leader
	// entirely (context.Background) would also drop the leader's values.
	// WithoutCancel keeps the values and detaches only cancellation.
	passCtx := context.WithoutCancel(leader.ctx)
	exec := leader.span.Child("execute")
	sums, schedRes, err := s.vecSharedScan(trace.NewContext(passCtx, exec), &b.pass, b.vt, b.qs, s.scanScheds[b.workers])
	exec.AddCycles(schedRes.MakespanCycles)
	exec.End()
	s.recordSched(schedRes.FaultStats, err)
	resp := Response{Cost: hw.Cost{SimCycles: schedRes.MakespanCycles / float64(len(live))}}
	var batchSize string
	if err == nil {
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
// A join or aggregate opens its memory reservation here, once it holds cores:
// a request waiting in the queue holds no budget. Scans reserve nothing (their
// state is streaming, not a table), and Q1/Q6 run single-threaded engines with
// no governed state.
func (s *Server) runOne(p *pending, workers int, batchClass bool) {
	defer s.wg.Done()
	defer func() {
		s.released <- event{kind: evRelease, n: workers, batchClass: batchClass}
		p.done <- struct{}{}
	}()
	if c := s.testHold; c != nil {
		<-c
	}
	if err := p.ctx.Err(); err != nil {
		s.settle(p, Response{}, fmt.Errorf("serve: dropped before execution: %w", err))
		return
	}
	var resv *mem.Reservation
	if p.req.Op == OpJoin || p.req.Op == OpGroupSum {
		resv = s.gov.Reserve(p.req.Tenant)
	}
	exec := p.span.Child("execute")
	resp, err := s.execute(trace.NewContext(p.ctx, exec), p.req, workers, resv)
	exec.AddCycles(resp.SimCycles)
	exec.End()
	if err == nil {
		s.reg.Histogram("serve.cycles_per_query").Record(resp.SimCycles)
	}
	if resv != nil {
		if spills, spillB := resv.Spills(); spills > 0 {
			s.reg.Counter("serve.spills").Add(spills)
			s.reg.Counter("serve.spill_bytes").Add(spillB)
			p.span.SetAttr("spilled", "true")
		}
		p.span.AddBytes(resv.PeakBytes())
		resv.Release()
		gs := s.gov.Stats()
		s.reg.Gauge("serve.mem_in_use").Set(gs.InUseBytes)
		s.reg.Gauge("serve.mem_reservations").Set(int64(gs.Reservations))
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
		res, err := agg.Parallel(ctx, req.Keys, req.Vals, req.Strategy, sch, s.machine, 0, req.Lease)
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
	p.done <- struct{}{}
}

// settle accounts the outcome and leaves it in p.out, for Submit to read once
// the executor, its cores back, has sent on done: context-terminated requests
// count as deadline-exceeded, successful ones record latency, memory-pressure
// denials count as serve.mem_shed, the rest count as failed. Every admitted
// request ends here, so it also drops its lease reference.
func (s *Server) settle(p *pending, resp Response, err error) {
	switch {
	case err == nil:
		s.reg.Counter("serve.completed").Inc()
		s.reg.Histogram("serve.latency_ms").Record(float64(time.Since(p.enq).Microseconds()) / 1000)
		p.span.SetAttr("status", "ok")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter("serve.deadline_exceeded").Inc()
		p.span.SetAttr("status", "deadline")
	case errors.Is(err, errs.ErrMemoryPressure):
		s.reg.Counter("serve.mem_shed").Inc()
		p.span.SetAttr("status", "mem_shed")
	default:
		s.reg.Counter("serve.failed").Inc()
		p.span.SetAttr("status", "failed")
		if errors.Is(err, errs.ErrOOMKilled) {
			s.reg.Counter("serve.oom_killed").Inc()
		}
	}
	// Close out the request's trace. queueSpan/batchSpan ends are idempotent
	// no-ops on the normal path; they matter for requests dropped before
	// dispatch or mid-assembly.
	p.queueSpan.End()
	p.batchSpan.End()
	p.span.End()
	p.out = outcome{resp: resp, err: err}
	p.req.Lease.Release() // the executor's last read is behind it
}

// Health is a point-in-time snapshot of the server's resilience state.
type Health struct {
	// State is "ok" for a server; the shard tier's view reports "degraded"
	// while a node is dead.
	State string
	// QueueDepth is the current intake backlog, both lanes.
	QueueDepth int

	// Admission and outcome counters. Shed is always 0 and kept because the
	// v1 wire carries it.
	Admitted, Completed, Failed, Rejected, Shed, DeadlineExceeded int64

	// Resilience counters: the schedulers' morsel re-runs, morsels
	// re-dispatched away from sick workers, recovered panics, stragglers
	// retired, cores lost.
	Retries                       int64
	Redispatched, PanicsRecovered int64
	StragglersRetired, CoresLost  int64

	// Memory-governance counters: requests answered ErrMemoryPressure (an
	// operator that could not run even spilled, or an allocation fault that
	// outlived its morsel's re-runs), operator spill decisions and simulated
	// spill-tier bytes, and simulated OOM kills (KillOnOverage mode only).
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
	// count background and explicit checkpoint outcomes; ReplayedTables
	// counts tables registered from the store at boot.
	Durable                         bool
	Recovery                        store.RecoveryStats
	LastCheckpoint                  store.CheckpointStats
	StoreVersion                    uint64
	Checkpoints, CheckpointFailures int64
	CheckpointMemShed               int64
	ReplayedTables                  int64

	// VecPasses counts shared-scan passes; the block counters decompose
	// their outcomes (zone-map prunes, O(1) precomputed-sum folds, payload
	// decodes).
	VecPasses                                      int64
	VecBlocksPruned, VecFastSums, VecBlocksScanned int64
}

// HealthFromCounters is the counter half of Health: every field that is a
// monotonic count, read from a counter snapshot of one server's registry — or
// of several summed key by key, which is how the shard tier builds its view.
// The registry is the only counter store, so this mapping is the only place a
// Health counter field is tied to its series.
func HealthFromCounters(c map[string]int64) Health {
	return Health{
		Admitted:           c["serve.admitted"],
		Completed:          c["serve.completed"],
		Failed:             c["serve.failed"],
		Rejected:           c["serve.rejected"],
		DeadlineExceeded:   c["serve.deadline_exceeded"],
		Retries:            c["serve.retries"],
		Redispatched:       c["serve.redispatched"],
		PanicsRecovered:    c["serve.panics_recovered"],
		StragglersRetired:  c["serve.stragglers_retired"],
		CoresLost:          c["serve.cores_lost"],
		MemShed:            c["serve.mem_shed"],
		Spills:             c["serve.spills"],
		SpillBytes:         c["serve.spill_bytes"],
		OOMKilled:          c["serve.oom_killed"],
		Checkpoints:        c["serve.checkpoints"],
		CheckpointFailures: c["serve.checkpoint_failures"],
		CheckpointMemShed:  c["serve.checkpoint_mem_shed"],
		ReplayedTables:     c["serve.replayed_tables"],
		VecPasses:          c["serve.vec_passes"],
		VecBlocksPruned:    c["serve.vec_blocks_pruned"],
		VecFastSums:        c["serve.vec_block_fast_sums"],
		VecBlocksScanned:   c["serve.vec_blocks_scanned"],
	}
}

// Health snapshots the server's resilience state: the counter view plus what
// no counter holds — queue depth, the governor, the fault injector's log and
// the store.
func (s *Server) Health() Health {
	h := HealthFromCounters(s.reg.Counters())
	h.State = "ok"
	h.QueueDepth = len(s.intake) + len(s.intakeLo)
	h.Memory = s.gov.Stats()
	h.Faults = s.opts.Faults.CountsInt64()
	if s.st != nil {
		h.Durable = true
		h.Recovery = s.st.Recovery()
		h.LastCheckpoint = s.st.LastCheckpoint()
		h.StoreVersion = s.st.Version()
	}
	return h
}
