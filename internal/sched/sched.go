// Package sched implements a morsel-driven, NUMA-aware task scheduler over
// the simulated machine topology. It is the piece that turns "we have P
// cores" into measured parallel behaviour: operators split their input into
// morsels (small tasks), each task executes real Go code and charges its
// hardware work to the simulated core it runs on, and the scheduler's
// list-scheduling simulation produces a deterministic makespan — including
// the load-imbalance and remote-access effects the keynote warns about.
//
// The simulation executes tasks sequentially in virtual-time order (always
// advancing the core with the lowest clock), which makes runs exactly
// reproducible regardless of host parallelism while still modelling a
// parallel machine faithfully: the makespan is that of the same greedy
// schedule on real hardware with the modelled per-task costs. This is a
// contract, not an implementation detail: task bodies run one at a time, on
// the goroutine that called RunContext or RunMorsels, so the tasks of one run
// may share state without synchronisation (serve's scan pass folds every
// morsel into one accumulator this way).
//
// A run's own state — workers with their accounts, socket queues, the
// dispatch heap — comes from a pool and is reset in full when the run
// starts, so a warm run allocates only the Result it returns.
//
// The scheduler is also the layer that survives partial hardware failure.
// Task panics are always recovered and converted to a typed error wrapping
// errs.ErrWorkerPanic with the stack captured; with Options.IsolatePanics
// the panicking worker is retired and its morsels re-dispatch to healthy
// workers instead of failing the run. Per-worker progress clocks detect
// stragglers (cores running a configurable factor slower than the median),
// retire them, and re-dispatch their remaining claimed morsels. Simulated
// core loss at run start is absorbed the same way. A fault.Injector armed
// via Options.Inject drives all of these deterministically from a seed.
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/trace"
)

// Worker is a simulated core executing tasks. Tasks receive their worker and
// may charge hardware work against it; the worker's virtual clock advances by
// the priced cycles.
type Worker struct {
	// ID is the global core index; Socket its NUMA node.
	ID     int
	Socket int

	clock        float64
	acct         hw.Account
	tasks        int
	totalWorkers int

	// skew multiplies every cycle charge (1 for a healthy core, >1 for an
	// injected straggler); claimed holds morsels this worker has taken from
	// a queue but not yet run; retired marks a worker removed from the run
	// after a panic, straggler detection, or core loss.
	skew    float64
	claimed []queued
	retired bool

	// resv is the query's memory reservation (nil = ungoverned).
	resv *mem.Reservation
}

// Mem returns the memory reservation of the query this worker executes. A
// nil reservation grants every charge, so operators call it unconditionally.
func (w *Worker) Mem() *mem.Reservation { return w.resv }

// TotalWorkers returns the number of workers participating in the current
// run — the "P" that contention formulas need.
func (w *Worker) TotalWorkers() int { return w.totalWorkers }

// Charge prices w on the worker's machine under the worker's execution
// context and advances the virtual clock. It returns the cycles charged,
// including any straggler skew on this core.
func (w *Worker) Charge(work hw.Work) float64 {
	cycles := w.acct.Charge(work)
	if w.skew > 1 {
		cycles *= w.skew
	}
	w.clock += cycles
	return cycles
}

// AdvanceCycles adds raw cycles to the worker's clock (for costs computed
// outside the Work vocabulary, e.g. traced cache simulations). Straggler
// skew applies here too: a slow core is slow for all its work.
func (w *Worker) AdvanceCycles(c float64) {
	if w.skew > 1 {
		c *= w.skew
	}
	w.clock += c
}

// Task is one unit of schedulable work. Run executes real code; any hardware
// cost it wants modelled must be charged to the worker.
type Task struct {
	// Name labels the task in diagnostics.
	Name string
	// Site is the morsel family name ("clock-scan", "agg-part", ...) used as
	// the fault-injection site key; empty falls back to Name.
	Site string
	// Socket is the preferred NUMA node (-1 for no preference); the
	// scheduler queues the task there and only another socket's worker
	// takes it by stealing.
	Socket int
	// Run executes the task on the given worker.
	Run func(w *Worker)

	// lo and hi are a morsel's item range and morsel the body its whole
	// family shares (set only by Morsels and RunMorsels): the task runs
	// morsel(lo, hi, w), so building a morsel allocates no closure, and its
	// name is formatted when printed, not when built.
	lo, hi int
	morsel func(start, end int, w *Worker)
}

// label is the task's name in diagnostics: Name, or for a morsel the family
// and range, "site[lo:hi]". Only the fault and error paths print it.
func (t *Task) label() string {
	if t.Name == "" && t.hi > t.lo {
		return fmt.Sprintf("%s[%d:%d]", t.Site, t.lo, t.hi)
	}
	return t.Name
}

// queued is a socket-queue entry: the index of a task in the run's task
// list and its re-execution count after panics.
type queued struct {
	task, attempts int
}

// Options configures a scheduler run.
type Options struct {
	// Workers is the number of simulated cores to use; 0 means all cores of
	// the machine. Workers are assigned to sockets round-robin in blocks
	// (fill socket 0 first), matching how affinity-aware engines place
	// threads.
	Workers int
	// Stealing enables cross-socket work stealing when a worker's own
	// socket queue drains.
	Stealing bool
	// Interference is the external slowdown factor applied to all memory
	// work (see hw.ExecContext); values < 1 are treated as 1.
	Interference float64

	// Inject arms a fault injector on this scheduler's runs: panics and
	// transient errors at morsel boundaries, straggler skew and core loss
	// per worker. Nil injects nothing.
	Inject *fault.Injector

	// Mem is the memory reservation the scheduled query charges its operator
	// state against (hash tables, partition buffers). Nil runs ungoverned:
	// every charge is granted, matching the pre-governor behaviour.
	Mem *mem.Reservation

	// IsolatePanics, when true, turns a task panic into worker retirement:
	// the panicking core is removed from the run and its morsels (the
	// panicked one plus everything it had claimed) re-dispatch to healthy
	// workers. When false a panic fails the run with a typed
	// errs.ErrWorkerPanic error (stack attached) — it never crashes the
	// process either way.
	IsolatePanics bool
	// MaxTaskRetries bounds how many times one morsel may be re-executed
	// after panics before the run fails (default 2). It keeps a
	// deterministically-poisoned morsel from retiring every worker in turn.
	MaxTaskRetries int

	// StragglerThreshold enables straggler detection when > 0: after each
	// completed morsel, a worker whose mean per-morsel cost exceeds
	// threshold × the median of the other active workers is retired and its
	// remaining claimed morsels re-dispatch. Typical values are 2–4.
	StragglerThreshold float64
	// BlockSize is how many morsels a worker claims per dispatch (default
	// 1). Claiming blocks models real morsel-batching — and is what gives a
	// straggler morsels to hold hostage, which re-dispatch then rescues.
	BlockSize int
}

// Result summarizes a scheduler run.
type Result struct {
	// MakespanCycles is the virtual time at which the last worker finished
	// — the parallel runtime of the task set.
	MakespanCycles float64
	// TotalCycles is the sum of all per-worker busy cycles (the serial
	// work).
	TotalCycles float64
	// PerWorker holds each worker's busy cycles.
	PerWorker []float64
	// TasksRun is the number of executed tasks; Steals counts tasks
	// executed on a non-preferred socket.
	TasksRun int
	Steals   int
	// Workers is the number of simulated cores used.
	Workers int
	// FaultStats reports what the run survived.
	FaultStats
}

// FaultStats counts the fault handling a schedule performed. Operators that
// run multiple phases (join, aggregation) sum these across phases.
type FaultStats struct {
	// Panics is the number of recovered task panics; TaskRetries the
	// morsel re-executions they caused.
	Panics      int
	TaskRetries int
	// Redispatched counts morsels moved from a retired or lost worker to a
	// healthy one.
	Redispatched int
	// StragglersRetired and CoresLost count workers removed mid-run and at
	// run start respectively.
	StragglersRetired int
	CoresLost         int
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.Panics += other.Panics
	s.TaskRetries += other.TaskRetries
	s.Redispatched += other.Redispatched
	s.StragglersRetired += other.StragglersRetired
	s.CoresLost += other.CoresLost
}

// Imbalance returns (max-mean)/mean of per-worker busy cycles, 0 for a
// perfectly balanced run.
func (r Result) Imbalance() float64 {
	if len(r.PerWorker) == 0 {
		return 0
	}
	var sum, maxC float64
	for _, c := range r.PerWorker {
		sum += c
		if c > maxC {
			maxC = c
		}
	}
	mean := sum / float64(len(r.PerWorker))
	if mean == 0 {
		return 0
	}
	return (maxC - mean) / mean
}

// Scheduler runs task sets on a simulated machine.
type Scheduler struct {
	machine *hw.Machine
	opts    Options
}

// Workers returns the number of simulated cores the scheduler uses.
func (s *Scheduler) Workers() int { return s.opts.Workers }

// Mem returns the memory reservation scheduled queries charge against (nil =
// ungoverned).
func (s *Scheduler) Mem() *mem.Reservation { return s.opts.Mem }

// New returns a scheduler for machine m with the given options.
func New(m *hw.Machine, opts Options) (*Scheduler, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("sched: negative worker count %d: %w", opts.Workers, errs.ErrWorkersOutOfRange)
	}
	if opts.Workers == 0 {
		opts.Workers = m.TotalCores()
	}
	if opts.Workers > m.TotalCores() {
		return nil, fmt.Errorf("sched: %d workers exceed machine's %d cores: %w", opts.Workers, m.TotalCores(), errs.ErrWorkersOutOfRange)
	}
	if opts.Interference < 1 {
		opts.Interference = 1
	}
	return &Scheduler{machine: m, opts: opts}, nil
}

// workerHeap orders workers by virtual clock (ties by ID for determinism).
type workerHeap []*Worker

func (h workerHeap) Len() int { return len(h) }
func (h workerHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].ID < h[j].ID
}
func (h workerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)   { *h = append(*h, x.(*Worker)) }
func (h *workerHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	*h = old[:n-1]
	return w
}

// runState is one run's scratch: everything RunContext needs beyond the
// caller's tasks. It lives in runPool between runs; reset rebuilds every
// field from the scheduler's options, so nothing a previous run left —
// retired workers, skew, clocks, queue heads — reaches the next one.
type runState struct {
	s     *Scheduler
	tasks []Task

	workers      []Worker
	liveOnSocket []int
	alive        int
	// queues are the socket-local FIFOs; heads[sock] is the next unclaimed
	// entry of queues[sock]. Entries below a head are never written again.
	queues [][]queued
	heads  []int
	h      workerHeap
	parked []*Worker
	// redisRR is the round-robin cursor redispatch resumes from.
	redisRR int
	res     Result

	// rescued, costs and morsels are scratch reused across runs: a panicked
	// morsel plus its worker's claims, medianPeerCost's sample, and the task
	// list RunMorsels builds.
	rescued []queued
	costs   []float64
	morsels []Task
}

var runPool = sync.Pool{New: func() any { return new(runState) }}

// resize returns s with length n and every element zeroed, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset prepares st for one run of tasks on s: workers placed on sockets
// with fresh accounts, injected worker faults armed (core loss reported to
// sp), every task queued on its socket and the live workers heaped.
func (st *runState) reset(s *Scheduler, tasks []Task, sp *trace.Span) {
	m := s.machine
	nw := s.opts.Workers
	st.s, st.tasks = s, tasks
	st.res = Result{Workers: nw}
	st.redisRR = 0

	// Place workers on sockets: fill sockets in order, as a pinned engine
	// would.
	st.workers = resize(st.workers, nw)
	st.liveOnSocket = resize(st.liveOnSocket, m.Sockets)
	for i := range st.workers {
		socket := i / m.CoresPerSocket
		if socket >= m.Sockets {
			socket = m.Sockets - 1
		}
		st.liveOnSocket[socket]++
		st.workers[i] = Worker{ID: i, Socket: socket, totalWorkers: nw, skew: 1, resv: s.opts.Mem}
	}
	for i := range st.workers {
		w := &st.workers[i]
		w.acct.Reset(m, hw.ExecContext{
			ActiveCoresOnSocket: st.liveOnSocket[w.Socket],
			InterferenceFactor:  s.opts.Interference,
		})
	}

	// Arm injected worker-level faults: straggler skew, then core loss. The
	// run never loses its last surviving worker.
	inj := s.opts.Inject
	st.alive = nw
	for i := range st.workers {
		if k := inj.WorkerSkew(i); k > 1 {
			st.workers[i].skew = k
		}
	}
	for i := range st.workers {
		w := &st.workers[i]
		if st.alive > 1 && inj.LoseCore(w.ID) {
			w.retired = true
			st.liveOnSocket[w.Socket]--
			st.alive--
			st.res.CoresLost++
			sp.Event("core " + strconv.Itoa(w.ID) + " lost at run start")
		}
	}

	// Socket-local FIFO queues, each grown at most once, to its counted
	// size. heads doubles as the per-socket count until the tasks are queued.
	if cap(st.queues) < m.Sockets {
		st.queues = make([][]queued, m.Sockets)
	}
	st.queues = st.queues[:m.Sockets]
	st.heads = resize(st.heads, m.Sockets)
	rr := 0
	for i := range tasks {
		st.heads[homeSocket(&tasks[i], m.Sockets, &rr)]++
	}
	for sock, n := range st.heads {
		if cap(st.queues[sock]) < n {
			st.queues[sock] = make([]queued, 0, n)
		}
		st.queues[sock] = st.queues[sock][:0]
		st.heads[sock] = 0
	}
	rr = 0
	for i := range tasks {
		sock := homeSocket(&tasks[i], m.Sockets, &rr)
		st.queues[sock] = append(st.queues[sock], queued{task: i})
	}

	st.parked = st.parked[:0]
	st.rescued = st.rescued[:0]
	st.costs = st.costs[:0]
	st.rebalance()

	st.h = st.h[:0]
	for i := range st.workers {
		if w := &st.workers[i]; !w.retired {
			st.h = append(st.h, w)
		}
	}
	heap.Init(&st.h)
}

// homeSocket is the queue task t starts in: its preferred socket, or for an
// unpinned task socket *rr (advancing *rr), spreading those round-robin.
func homeSocket(t *Task, sockets int, rr *int) int {
	if t.Socket >= 0 && t.Socket < sockets {
		return t.Socket
	}
	sock := *rr % sockets
	*rr++
	return sock
}

// release drops the run's references to caller data and returns st to the
// pool.
func (st *runState) release() {
	clear(st.morsels)
	clear(st.workers)
	st.s, st.tasks = nil, nil
	runPool.Put(st)
}

func (st *runState) remaining(sock int) int { return len(st.queues[sock]) - st.heads[sock] }

func (st *runState) totalQueued() int {
	n := 0
	for sock := range st.queues {
		n += st.remaining(sock)
	}
	return n
}

// redispatch returns morsels to the queues of sockets that still have live
// workers, round-robin, so a retired worker's claims are never stranded.
func (st *runState) redispatch(cts []queued) {
	sockets := st.s.machine.Sockets
	for _, ct := range cts {
		sock := -1
		for probe := 0; probe < sockets; probe++ {
			cand := (st.redisRR + probe) % sockets
			if st.liveOnSocket[cand] > 0 {
				sock = cand
				st.redisRR = cand + 1
				break
			}
		}
		if sock < 0 {
			sock = st.tasks[ct.task].Socket // no live workers anywhere; the loop will abort
			if sock < 0 || sock >= sockets {
				sock = 0
			}
		}
		st.queues[sock] = append(st.queues[sock], ct)
		st.res.Redispatched++
	}
}

// rebalance moves tasks queued on sockets that lost all their workers to
// live sockets. Only needed without stealing — a stealing worker reaches
// every queue anyway.
func (st *runState) rebalance() {
	if st.s.opts.Stealing {
		return
	}
	for sock := range st.queues {
		if st.liveOnSocket[sock] > 0 || st.remaining(sock) == 0 {
			continue
		}
		stranded := st.queues[sock][st.heads[sock]:]
		st.queues[sock] = st.queues[sock][:st.heads[sock]]
		st.redispatch(stranded)
	}
}

// unpark returns idle workers to the heap once re-dispatched work exists for
// them.
func (st *runState) unpark() {
	keep := st.parked[:0]
	for _, w := range st.parked {
		if st.remaining(w.Socket) > 0 || (st.s.opts.Stealing && st.totalQueued() > 0) {
			heap.Push(&st.h, w)
		} else {
			keep = append(keep, w)
		}
	}
	st.parked = keep
}

// retire removes a worker mid-run and rescues its unfinished morsels.
func (st *runState) retire(w *Worker, rescued []queued) {
	w.retired = true
	w.claimed = nil
	st.liveOnSocket[w.Socket]--
	st.alive--
	st.redispatch(rescued)
	st.rebalance()
	st.unpark()
}

// medianPeerCost is the median per-morsel cost of the other live workers
// that have completed at least one morsel — the reference a straggler is
// measured against.
func (st *runState) medianPeerCost(self *Worker) float64 {
	costs := st.costs[:0]
	for i := range st.workers {
		w := &st.workers[i]
		if w == self || w.retired || w.tasks == 0 {
			continue
		}
		costs = append(costs, w.clock/float64(w.tasks))
	}
	st.costs = costs
	if len(costs) == 0 {
		return 0
	}
	sort.Float64s(costs)
	return costs[len(costs)/2]
}

// Run executes all tasks and returns the schedule's result. Tasks with a
// preferred socket go to that socket's queue; unpinned tasks are spread
// round-robin. Execution order is deterministic. A task panic that the run
// cannot absorb re-panics here (there is no error return to carry it).
func (s *Scheduler) Run(tasks []Task) Result {
	//hwlint:ignore ctxfirst Run is the documented no-context bridge; callers that can cancel use RunContext
	res, err := s.RunContext(context.Background(), tasks)
	if err != nil && errors.Is(err, errs.ErrWorkerPanic) {
		panic(err)
	}
	return res
}

// RunContext is Run with cooperative cancellation: the context is checked at
// every morsel boundary (before each task dispatch), so an expired deadline
// or a cancelled client stops the schedule between tasks rather than after
// the whole set. A morsel in flight always completes — tasks are never
// interrupted mid-execution, matching how morsel-driven engines implement
// query cancellation. On cancellation the partial schedule's Result is
// returned together with the context's error (wrapped, errors.Is-compatible).
//
// Task panics are recovered, never propagated: without IsolatePanics the run
// fails with an error wrapping errs.ErrWorkerPanic carrying the panic value
// and captured stack; with it the panicking worker retires and its morsels
// re-dispatch (see Options). Injected transient failures fail the run with
// an errs.ErrTransient-wrapping error — retrying is the caller's policy.
//
// Task bodies run one at a time on the calling goroutine (see the package
// documentation).
func (s *Scheduler) RunContext(ctx context.Context, tasks []Task) (Result, error) {
	st := runPool.Get().(*runState)
	defer st.release()
	return st.run(ctx, s, tasks)
}

// RunMorsels runs Morsels(n, morselSize, site, fn) with the morsel size
// snapped up to a multiple of align (at least one align unit) — the
// vectorized scan hands out whole compression blocks, so no block is ever
// split across workers; a non-positive align leaves the size as given. The
// morsel list is built in the run's pooled state, so a warm run allocates
// only its Result whatever the morsel count.
func (s *Scheduler) RunMorsels(ctx context.Context, n, morselSize, align int, site string, fn func(start, end int, w *Worker)) (Result, error) {
	st := runPool.Get().(*runState)
	defer st.release()
	st.morsels = appendMorsels(st.morsels[:0], n, morselRows(morselSize, align), site, fn)
	return st.run(ctx, s, st.morsels)
}

// run executes one schedule of tasks on s.
func (st *runState) run(ctx context.Context, s *Scheduler, tasks []Task) (Result, error) {
	// sp is the trace span this schedule reports into (nil — a no-op — when
	// the context carries none): fault events are annotated as they happen,
	// and per-worker busy cycles are emitted as child spans at the end.
	sp := trace.FromContext(ctx)
	inj := s.opts.Inject
	blockSize := s.opts.BlockSize
	if blockSize <= 0 {
		blockSize = 1
	}
	maxRetries := s.opts.MaxTaskRetries
	if maxRetries <= 0 {
		maxRetries = 2
	}

	st.reset(s, tasks, sp)
	res := &st.res
	pendingTasks := len(tasks)
	var runErr error

	for pendingTasks > 0 {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("sched: run aborted after %d of %d tasks: %w", res.TasksRun, len(tasks), err)
			break
		}
		if st.h.Len() == 0 {
			// Everyone is parked or retired. Parked workers wake only when
			// work reappears; if none can, the tasks are unreachable.
			st.unpark()
			if st.h.Len() == 0 {
				runErr = fmt.Errorf("sched: %d morsels stranded with no live worker: %w", pendingTasks, errs.ErrWorkerPanic)
				break
			}
			continue
		}
		w := heap.Pop(&st.h).(*Worker)
		if len(w.claimed) == 0 {
			// Claim a block from the local queue; otherwise steal from the
			// fullest queue.
			sock := w.Socket
			if st.remaining(sock) == 0 {
				if !s.opts.Stealing {
					st.parked = append(st.parked, w)
					continue
				}
				best, bestLeft := -1, 0
				for qs := range st.queues {
					if left := st.remaining(qs); left > bestLeft {
						best, bestLeft = qs, left
					}
				}
				if best == -1 {
					st.parked = append(st.parked, w)
					continue
				}
				sock = best
			}
			n := blockSize
			if left := st.remaining(sock); n > left {
				n = left
			}
			// The claim is a window onto the queue, not a copy: entries
			// below a queue's head are never written again.
			head := st.heads[sock]
			w.claimed = st.queues[sock][head : head+n : head+n]
			st.heads[sock] += n
			if sock != w.Socket {
				res.Steals += n
			}
		}
		ct := w.claimed[0]
		w.claimed = w.claimed[1:]
		t := &tasks[ct.task]
		site := t.Site
		if site == "" {
			site = t.label()
		}

		// Injected transient failure: the morsel boundary is the failure
		// point, so nothing partial happened — fail the run and let the
		// caller's retry policy decide.
		if err := inj.TaskError(site, w.ID); err != nil {
			sp.Annotate("transient fault in %s on worker %d", t.label(), w.ID)
			runErr = fmt.Errorf("sched: task %s failed: %w", t.label(), err)
			break
		}

		before := w.clock
		if pval, stack := runTask(t, w, inj, site); pval != nil {
			res.Panics++
			if !s.opts.IsolatePanics {
				sp.Annotate("panic on worker %d in %s (run failed)", w.ID, t.label())
				runErr = fmt.Errorf("sched: worker %d panicked in task %s: %v: %w\n%s", w.ID, t.label(), pval, errs.ErrWorkerPanic, stack)
				break
			}
			ct.attempts++
			if ct.attempts > maxRetries {
				sp.Annotate("task %s panicked on %d workers, giving up", t.label(), ct.attempts)
				runErr = fmt.Errorf("sched: task %s panicked on %d workers, giving up (last: worker %d, %v): %w\n%s",
					t.label(), ct.attempts, w.ID, pval, errs.ErrWorkerPanic, stack)
				break
			}
			res.TaskRetries++
			sp.Event("worker " + strconv.Itoa(w.ID) + " retired after panic in " + t.label() + "; " + strconv.Itoa(1+len(w.claimed)) + " morsels re-dispatched")
			// The core is poisoned: retire it and move the panicked morsel
			// plus everything it still held to healthy workers. Cycles spent
			// before the panic stay on its clock — wasted work is real work.
			st.rescued = append(append(st.rescued[:0], ct), w.claimed...)
			st.retire(w, st.rescued)
			continue
		}
		if w.clock < before {
			// Defensive: tasks must not rewind time.
			w.clock = before
		}
		w.tasks++
		res.TasksRun++
		pendingTasks--

		// Straggler detection: a worker paying far more per morsel than its
		// peers is retired while there is still work to protect, and its
		// claimed block re-dispatches.
		if thr := s.opts.StragglerThreshold; thr > 0 && pendingTasks > 0 && st.alive > 1 {
			if med := st.medianPeerCost(w); med > 0 && w.clock/float64(w.tasks) > thr*med {
				res.StragglersRetired++
				sp.Event("worker " + strconv.Itoa(w.ID) + " retired as straggler (" +
					strconv.FormatFloat(w.clock/float64(w.tasks)/med, 'f', 1, 64) + "x median peer cost); " +
					strconv.Itoa(len(w.claimed)) + " morsels re-dispatched")
				st.retire(w, w.claimed)
				continue
			}
		}
		heap.Push(&st.h, w)
	}

	out := *res
	out.PerWorker = make([]float64, len(st.workers))
	for i := range st.workers {
		w := &st.workers[i]
		out.PerWorker[i] = w.clock
		out.TotalCycles += w.clock
		if w.clock > out.MakespanCycles {
			out.MakespanCycles = w.clock
		}
	}
	if sp != nil {
		// Per-worker morsel spans: each worker's busy cycles and morsel
		// count, with retirement visible, so a span tree attributes the
		// schedule's cost core by core.
		for i := range st.workers {
			w := &st.workers[i]
			if w.tasks == 0 && w.clock == 0 {
				continue
			}
			ws := sp.Child("worker")
			ws.AddCycles(w.clock)
			ws.SetAttr("id", strconv.Itoa(w.ID))
			ws.SetAttr("morsels", strconv.Itoa(w.tasks))
			if w.retired {
				ws.SetAttr("retired", "true")
			}
			ws.End()
		}
		sp.SetAttr("steals", strconv.Itoa(out.Steals))
	}
	return out, runErr
}

// runTask executes one task with panic isolation: a panic (injected or real)
// is recovered and returned with the captured stack instead of unwinding
// into the scheduler. Injected panics fire before the body, so a re-executed
// morsel never double-applies effects.
func runTask(t *Task, w *Worker, inj *fault.Injector, site string) (pval any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			pval = r
			stack = debug.Stack()
		}
	}()
	if inj.ShouldPanic(site, w.ID) {
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	}
	if t.morsel != nil {
		t.morsel(t.lo, t.hi, w)
	} else {
		t.Run(w)
	}
	return nil, nil
}

// Morsels splits n items into tasks of at most morselSize items each
// (default 1<<14), calling fn(start, end, worker) for each morsel. Morsels
// are unpinned: the scheduler spreads them over sockets round-robin. Every
// morsel shares fn, so the task slice is the only allocation.
func Morsels(n, morselSize int, name string, fn func(start, end int, w *Worker)) []Task {
	if n <= 0 {
		return nil
	}
	size := morselRows(morselSize, 0)
	return appendMorsels(make([]Task, 0, (n+size-1)/size), n, size, name, fn)
}

// morselRows is the morsel size Morsels and RunMorsels cut with: size
// (default 1<<14), snapped up to a multiple of align when align is positive.
func morselRows(size, align int) int {
	if size <= 0 {
		size = 1 << 14
	}
	if align > 0 {
		if size < align {
			size = align
		} else if rem := size % align; rem != 0 {
			size += align - rem
		}
	}
	return size
}

// appendMorsels appends the morsels of n items of size items each to dst.
func appendMorsels(dst []Task, n, size int, site string, fn func(start, end int, w *Worker)) []Task {
	for start := 0; start < n; start += size {
		dst = append(dst, Task{Site: site, Socket: -1, lo: start, hi: min(start+size, n), morsel: fn})
	}
	return dst
}
