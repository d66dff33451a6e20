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
// schedule on real hardware with the modelled per-task costs.
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
	acct         *hw.Account
	tasks        int
	machine      *hw.Machine
	totalWorkers int

	// skew multiplies every cycle charge (1 for a healthy core, >1 for an
	// injected straggler); claimed holds morsels this worker has taken from
	// a queue but not yet run; retired marks a worker removed from the run
	// after a panic, straggler detection, or core loss.
	skew    float64
	claimed []claimedTask
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

// Clock returns the worker's current virtual time in cycles.
func (w *Worker) Clock() float64 { return w.clock }

// Machine returns the machine the worker runs on.
func (w *Worker) Machine() *hw.Machine { return w.machine }

// Context returns the worker's execution context.
func (w *Worker) Context() hw.ExecContext { return w.acct.Context() }

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

	// lo and hi are a morsel's item range (hi > lo only for tasks built by
	// Morsels), kept so its name is formatted when printed, not when built.
	lo, hi int
}

// label is the task's name in diagnostics: Name, or for a morsel the family
// and range, "site[lo:hi]". Only the fault and error paths print it.
func (t Task) label() string {
	if t.Name == "" && t.hi > t.lo {
		return fmt.Sprintf("%s[%d:%d]", t.Site, t.lo, t.hi)
	}
	return t.Name
}

// claimedTask is a queued task plus its re-execution count after panics.
type claimedTask struct {
	t        Task
	attempts int
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
func (s *Scheduler) RunContext(ctx context.Context, tasks []Task) (Result, error) {
	m := s.machine
	nw := s.opts.Workers
	inj := s.opts.Inject
	// sp is the trace span this schedule reports into (nil — a no-op — when
	// the context carries none): fault events are annotated as they happen,
	// and per-worker busy cycles are emitted as child spans at the end.
	sp := trace.FromContext(ctx)
	blockSize := s.opts.BlockSize
	if blockSize <= 0 {
		blockSize = 1
	}
	maxRetries := s.opts.MaxTaskRetries
	if maxRetries <= 0 {
		maxRetries = 2
	}

	// Place workers on sockets: fill sockets in order, as a pinned engine
	// would.
	workers := make([]*Worker, nw)
	perSocket := make([]int, m.Sockets)
	for i := 0; i < nw; i++ {
		socket := i / m.CoresPerSocket
		if socket >= m.Sockets {
			socket = m.Sockets - 1
		}
		perSocket[socket]++
		workers[i] = &Worker{ID: i, Socket: socket, machine: m, totalWorkers: nw, skew: 1, resv: s.opts.Mem}
	}
	for _, w := range workers {
		ctx := hw.ExecContext{
			ActiveCoresOnSocket: perSocket[w.Socket],
			InterferenceFactor:  s.opts.Interference,
		}
		w.acct = hw.NewAccount(m, ctx)
	}

	res := Result{Workers: nw}

	// Arm injected worker-level faults: straggler skew, then core loss. The
	// run never loses its last surviving worker.
	liveOnSocket := make([]int, m.Sockets)
	alive := nw
	for _, w := range workers {
		liveOnSocket[w.Socket]++
		if k := inj.WorkerSkew(w.ID); k > 1 {
			w.skew = k
		}
	}
	for _, w := range workers {
		if alive > 1 && inj.LoseCore(w.ID) {
			w.retired = true
			liveOnSocket[w.Socket]--
			alive--
			res.CoresLost++
			sp.Event("core " + strconv.Itoa(w.ID) + " lost at run start")
		}
	}

	// Socket-local FIFO queues, each allocated once at its counted size.
	place := func(visit func(sock int, t Task)) {
		rr := 0
		for _, t := range tasks {
			sock := t.Socket
			if sock < 0 || sock >= m.Sockets {
				sock = rr % m.Sockets
				rr++
			}
			visit(sock, t)
		}
	}
	queued := make([]int, m.Sockets)
	place(func(sock int, _ Task) { queued[sock]++ })
	queues := make([][]claimedTask, m.Sockets)
	for sock, n := range queued {
		queues[sock] = make([]claimedTask, 0, n)
	}
	place(func(sock int, t Task) { queues[sock] = append(queues[sock], claimedTask{t: t}) })
	heads := make([]int, m.Sockets)
	remaining := func(sock int) int { return len(queues[sock]) - heads[sock] }
	totalQueued := func() int {
		n := 0
		for sock := range queues {
			n += remaining(sock)
		}
		return n
	}

	// redispatch returns morsels to the queues of sockets that still have
	// live workers, round-robin, so a retired worker's claims are never
	// stranded.
	redisRR := 0
	redispatch := func(cts []claimedTask) {
		for _, ct := range cts {
			sock := -1
			for probe := 0; probe < m.Sockets; probe++ {
				cand := (redisRR + probe) % m.Sockets
				if liveOnSocket[cand] > 0 {
					sock = cand
					redisRR = cand + 1
					break
				}
			}
			if sock < 0 {
				sock = ct.t.Socket // no live workers anywhere; the loop will abort
				if sock < 0 || sock >= m.Sockets {
					sock = 0
				}
			}
			queues[sock] = append(queues[sock], ct)
			res.Redispatched++
		}
	}
	// rebalance moves tasks queued on sockets that lost all their workers to
	// live sockets. Only needed without stealing — a stealing worker reaches
	// every queue anyway.
	rebalance := func() {
		if s.opts.Stealing {
			return
		}
		for sock := range queues {
			if liveOnSocket[sock] > 0 || remaining(sock) == 0 {
				continue
			}
			stranded := queues[sock][heads[sock]:]
			queues[sock] = queues[sock][:heads[sock]]
			redispatch(stranded)
		}
	}
	rebalance()

	h := workerHeap{}
	for _, w := range workers {
		if !w.retired {
			h = append(h, w)
		}
	}
	heap.Init(&h)
	var parked []*Worker

	// unpark returns idle workers to the heap once re-dispatched work exists
	// for them.
	unpark := func() {
		keep := parked[:0]
		for _, w := range parked {
			if remaining(w.Socket) > 0 || (s.opts.Stealing && totalQueued() > 0) {
				heap.Push(&h, w)
			} else {
				keep = append(keep, w)
			}
		}
		parked = keep
	}
	// retire removes a worker mid-run and rescues its unfinished morsels.
	retire := func(w *Worker, rescued []claimedTask) {
		w.retired = true
		w.claimed = nil
		liveOnSocket[w.Socket]--
		alive--
		redispatch(rescued)
		rebalance()
		unpark()
	}
	// medianPeerCost is the median per-morsel cost of the other live workers
	// that have completed at least one morsel — the reference a straggler is
	// measured against.
	medianPeerCost := func(self *Worker) float64 {
		var costs []float64
		for _, w := range workers {
			if w == self || w.retired || w.tasks == 0 {
				continue
			}
			costs = append(costs, w.clock/float64(w.tasks))
		}
		if len(costs) == 0 {
			return 0
		}
		sort.Float64s(costs)
		return costs[len(costs)/2]
	}

	pendingTasks := len(tasks)
	var runErr error

	for pendingTasks > 0 {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("sched: run aborted after %d of %d tasks: %w", res.TasksRun, len(tasks), err)
			break
		}
		if h.Len() == 0 {
			// Everyone is parked or retired. Parked workers wake only when
			// work reappears; if none can, the tasks are unreachable.
			unpark()
			if h.Len() == 0 {
				runErr = fmt.Errorf("sched: %d morsels stranded with no live worker: %w", pendingTasks, errs.ErrWorkerPanic)
				break
			}
			continue
		}
		w := heap.Pop(&h).(*Worker)
		if len(w.claimed) == 0 {
			// Claim a block from the local queue; otherwise steal from the
			// fullest queue.
			sock := w.Socket
			if remaining(sock) == 0 {
				if !s.opts.Stealing {
					parked = append(parked, w)
					continue
				}
				best, bestLeft := -1, 0
				for qs := range queues {
					if left := remaining(qs); left > bestLeft {
						best, bestLeft = qs, left
					}
				}
				if best == -1 {
					parked = append(parked, w)
					continue
				}
				sock = best
			}
			n := blockSize
			if left := remaining(sock); n > left {
				n = left
			}
			// The claim is a window onto the queue, not a copy: entries
			// below a queue's head are never written again.
			w.claimed = queues[sock][heads[sock] : heads[sock]+n : heads[sock]+n]
			heads[sock] += n
			if sock != w.Socket {
				res.Steals += n
			}
		}
		ct := w.claimed[0]
		w.claimed = w.claimed[1:]
		site := ct.t.Site
		if site == "" {
			site = ct.t.label()
		}

		// Injected transient failure: the morsel boundary is the failure
		// point, so nothing partial happened — fail the run and let the
		// caller's retry policy decide.
		if err := inj.TaskError(site, w.ID); err != nil {
			sp.Annotate("transient fault in %s on worker %d", ct.t.label(), w.ID)
			runErr = fmt.Errorf("sched: task %s failed: %w", ct.t.label(), err)
			break
		}

		before := w.clock
		if pval, stack := runTask(ct.t, w, inj, site); pval != nil {
			res.Panics++
			if !s.opts.IsolatePanics {
				sp.Annotate("panic on worker %d in %s (run failed)", w.ID, ct.t.label())
				runErr = fmt.Errorf("sched: worker %d panicked in task %s: %v: %w\n%s", w.ID, ct.t.label(), pval, errs.ErrWorkerPanic, stack)
				break
			}
			ct.attempts++
			if ct.attempts > maxRetries {
				sp.Annotate("task %s panicked on %d workers, giving up", ct.t.label(), ct.attempts)
				runErr = fmt.Errorf("sched: task %s panicked on %d workers, giving up (last: worker %d, %v): %w\n%s",
					ct.t.label(), ct.attempts, w.ID, pval, errs.ErrWorkerPanic, stack)
				break
			}
			res.TaskRetries++
			sp.Event("worker " + strconv.Itoa(w.ID) + " retired after panic in " + ct.t.label() + "; " + strconv.Itoa(1+len(w.claimed)) + " morsels re-dispatched")
			// The core is poisoned: retire it and move the panicked morsel
			// plus everything it still held to healthy workers. Cycles spent
			// before the panic stay on its clock — wasted work is real work.
			retire(w, append([]claimedTask{ct}, w.claimed...))
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
		if t := s.opts.StragglerThreshold; t > 0 && pendingTasks > 0 && alive > 1 {
			if med := medianPeerCost(w); med > 0 && w.clock/float64(w.tasks) > t*med {
				res.StragglersRetired++
				sp.Event("worker " + strconv.Itoa(w.ID) + " retired as straggler (" +
					strconv.FormatFloat(w.clock/float64(w.tasks)/med, 'f', 1, 64) + "x median peer cost); " +
					strconv.Itoa(len(w.claimed)) + " morsels re-dispatched")
				retire(w, w.claimed)
				continue
			}
		}
		heap.Push(&h, w)
	}

	res.PerWorker = make([]float64, nw)
	for i, w := range workers {
		res.PerWorker[i] = w.clock
		res.TotalCycles += w.clock
		if w.clock > res.MakespanCycles {
			res.MakespanCycles = w.clock
		}
	}
	if sp != nil {
		// Per-worker morsel spans: each worker's busy cycles and morsel
		// count, with retirement visible, so a span tree attributes the
		// schedule's cost core by core.
		for _, w := range workers {
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
		sp.SetAttr("steals", strconv.Itoa(res.Steals))
	}
	return res, runErr
}

// runTask executes one task with panic isolation: a panic (injected or real)
// is recovered and returned with the captured stack instead of unwinding
// into the scheduler. Injected panics fire before the body, so a re-executed
// morsel never double-applies effects.
func runTask(t Task, w *Worker, inj *fault.Injector, site string) (pval any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			pval = r
			stack = debug.Stack()
		}
	}()
	if inj.ShouldPanic(site, w.ID) {
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	}
	t.Run(w)
	return nil, nil
}

// Morsels splits n items into tasks of at most morselSize items each,
// calling fn(start, end, worker) for each morsel. Morsels are unpinned;
// pass them through PinRoundRobin to spread them over sockets explicitly.
func Morsels(n, morselSize int, name string, fn func(start, end int, w *Worker)) []Task {
	if morselSize <= 0 {
		morselSize = 1 << 14
	}
	if n <= 0 {
		return nil
	}
	tasks := make([]Task, 0, (n+morselSize-1)/morselSize)
	for start := 0; start < n; start += morselSize {
		end := start + morselSize
		if end > n {
			end = n
		}
		s, e := start, end
		tasks = append(tasks, Task{
			Site:   name,
			Socket: -1,
			Run:    func(w *Worker) { fn(s, e, w) },
			lo:     s,
			hi:     e,
		})
	}
	return tasks
}

// MorselsAligned is Morsels with the morsel size snapped to a multiple of
// align (at least one align unit): the vectorized scan path hands out
// morsels in whole compression blocks so no block is ever split across
// workers. A non-positive align degenerates to Morsels.
func MorselsAligned(n, morselSize, align int, name string, fn func(start, end int, w *Worker)) []Task {
	if align > 0 {
		if morselSize < align {
			morselSize = align
		} else if rem := morselSize % align; rem != 0 {
			morselSize += align - rem
		}
	}
	return Morsels(n, morselSize, name, fn)
}

// PinRoundRobin assigns preferred sockets to tasks round-robin over the
// machine's sockets, modelling NUMA-partitioned input.
func PinRoundRobin(tasks []Task, m *hw.Machine) []Task {
	for i := range tasks {
		tasks[i].Socket = i % m.Sockets
	}
	return tasks
}
