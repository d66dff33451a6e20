package sched

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
)

// countingTasks returns n fixed-cost tasks that each atomically record their
// completion, so tests can assert exactly-once execution under faults.
func countingTasks(n int, cycles float64, ran *[]int32) []Task {
	*ran = make([]int32, n)
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Name:   "count",
			Site:   "count",
			Socket: -1,
			Run: func(w *Worker) {
				atomic.AddInt32(&(*ran)[i], 1)
				w.AdvanceCycles(cycles)
			},
		}
	}
	return tasks
}

func TestPanicIsolationRetriesMorsel(t *testing.T) {
	m := hw.Server2S()
	inj := fault.New(fault.Config{Seed: 1, PanicProb: 1, MaxFaults: 1}) // exactly one panic
	s, err := New(m, Options{Workers: 4, Stealing: true, Inject: inj, IsolatePanics: true})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	res, err := s.RunContext(context.Background(), countingTasks(16, 100, &ran))
	if err != nil {
		t.Fatalf("isolated run failed: %v", err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if res.Panics != 1 || res.TaskRetries != 1 {
		t.Fatalf("stats = %+v, want 1 panic / 1 retry", res.FaultStats)
	}
	if res.Redispatched == 0 {
		t.Fatal("panicked worker's morsel was not re-dispatched")
	}
	if got := inj.Counts()[fault.ClassPanic]; got != 1 {
		t.Fatalf("injector log shows %d panics", got)
	}
}

func TestUnisolatedPanicFailsRunWithStack(t *testing.T) {
	m := hw.Server2S()
	inj := fault.New(fault.Config{Seed: 1, PanicProb: 1, MaxFaults: 1})
	s, err := New(m, Options{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	_, runErr := s.RunContext(context.Background(), countingTasks(16, 100, &ran))
	if !errors.Is(runErr, errs.ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", runErr)
	}
	if !strings.Contains(runErr.Error(), "goroutine") {
		t.Fatalf("error carries no stack:\n%v", runErr)
	}
}

func TestRealPanicIsRecoveredToo(t *testing.T) {
	m := hw.Server2S()
	s, err := New(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{{Name: "boom", Run: func(w *Worker) { panic("kaboom") }}}
	_, runErr := s.RunContext(context.Background(), tasks)
	if !errors.Is(runErr, errs.ErrWorkerPanic) || !strings.Contains(runErr.Error(), "kaboom") {
		t.Fatalf("err = %v", runErr)
	}
}

func TestRetriesExhaustedGivesUp(t *testing.T) {
	m := hw.Server2S()
	// Unlimited panic budget: the morsel panics on every worker it lands on.
	inj := fault.New(fault.Config{Seed: 1, PanicProb: 1})
	s, err := New(m, Options{Workers: 8, Stealing: true, Inject: inj, IsolatePanics: true})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	_, runErr := s.RunContext(context.Background(), countingTasks(4, 100, &ran))
	if !errors.Is(runErr, errs.ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic after retries exhausted", runErr)
	}
}

func TestStragglerRetiredAndRedispatched(t *testing.T) {
	m := hw.Server2S()
	const nTasks, cost = 64, 100.0

	run := func(threshold float64) (Result, []int32) {
		inj := fault.New(fault.Config{Seed: 1, StragglerWorkers: []int{0}, StragglerSkew: 8})
		s, err := New(m, Options{
			Workers: 8, Stealing: true, Inject: inj,
			StragglerThreshold: threshold, BlockSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ran []int32
		res, err := s.RunContext(context.Background(), countingTasks(nTasks, cost, &ran))
		if err != nil {
			t.Fatal(err)
		}
		return res, ran
	}

	naive, _ := run(0)
	resil, ran := run(3)
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if resil.StragglersRetired != 1 {
		t.Fatalf("stragglers retired = %d", resil.StragglersRetired)
	}
	if resil.Redispatched == 0 {
		t.Fatal("straggler's block was not re-dispatched")
	}
	if resil.MakespanCycles >= naive.MakespanCycles {
		t.Fatalf("re-dispatch did not help: resilient %.0f >= naive %.0f", resil.MakespanCycles, naive.MakespanCycles)
	}
}

func TestCoreLossSurvivesAndNeverLosesLastWorker(t *testing.T) {
	m := hw.Server2S()
	inj := fault.New(fault.Config{Seed: 1, LostCores: []int{0, 1, 2}})
	s, err := New(m, Options{Workers: 4, Stealing: true, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	res, err := s.RunContext(context.Background(), countingTasks(16, 100, &ran))
	if err != nil {
		t.Fatalf("core-loss run failed: %v", err)
	}
	if res.CoresLost != 3 {
		t.Fatalf("cores lost = %d", res.CoresLost)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}

	// Losing every core must keep the last worker alive instead of hanging.
	inj = fault.New(fault.Config{Seed: 1, LostCores: []int{0, 1, 2, 3}})
	s, err = New(m, Options{Workers: 4, Stealing: true, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.RunContext(context.Background(), countingTasks(8, 100, &ran))
	if err != nil {
		t.Fatalf("all-cores-lost run failed: %v", err)
	}
	if res.CoresLost != 3 {
		t.Fatalf("lost %d cores, the guard should spare one", res.CoresLost)
	}
}

func TestCoreLossWithoutStealingRebalances(t *testing.T) {
	m := hw.Server2S()
	// Lose every core on socket 1 (workers 4..7 on the 2s8c profile); its
	// queued tasks must migrate to socket 0 even with stealing off.
	inj := fault.New(fault.Config{Seed: 1, LostCores: []int{4, 5, 6, 7}})
	s, err := New(m, Options{Workers: 8, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	tasks := countingTasks(16, 100, &ran)
	for i := range tasks {
		tasks[i].Socket = i % 2 // half the work pinned to the dead socket
	}
	res, err := s.RunContext(context.Background(), tasks)
	if err != nil {
		t.Fatalf("rebalance run failed: %v", err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if res.Redispatched == 0 {
		t.Fatal("stranded socket queue was not re-dispatched")
	}
}

// TestTransientFaultRerunsMorsel: a transient fires before the body, so the
// worker re-runs the morsel in place; two faults fit the re-run budget and
// the run succeeds with every task run exactly once.
func TestTransientFaultRerunsMorsel(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, TransientProb: 1, MaxFaults: 2})
	s, err := New(hw.Server2S(), Options{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	res, err := s.RunContext(context.Background(), countingTasks(16, 100, &ran))
	if err != nil {
		t.Fatalf("run with 2 transients failed: %v", err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if res.TaskRetries != 2 || res.TasksRun != 16 {
		t.Fatalf("retries %d, tasks run %d; want 2 and 16", res.TaskRetries, res.TasksRun)
	}
}

// TestTransientFaultAbortsRunTyped: a morsel that fails on every draw
// exhausts its re-run budget and fails the run typed, its body never run.
func TestTransientFaultAbortsRunTyped(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, TransientProb: 1})
	s, err := New(hw.Server2S(), Options{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int32
	res, runErr := s.RunContext(context.Background(), countingTasks(16, 100, &ran))
	if !errors.Is(runErr, errs.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", runErr)
	}
	if res.TaskRetries != maxTaskRetries || res.TasksRun != 0 {
		t.Fatalf("retries %d, tasks run %d; want %d and 0", res.TaskRetries, res.TasksRun, maxTaskRetries)
	}
	if got := inj.Counts()[fault.ClassTransient]; got != 1+maxTaskRetries {
		t.Fatalf("injector fired %d transients, want %d", got, 1+maxTaskRetries)
	}
}

// TestMorselFaultNamesItsRange: a morsel carries its range instead of a
// formatted name, and the fault path still prints "family[start:end]".
func TestMorselFaultNamesItsRange(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, TransientProb: 1})
	s, err := New(hw.Server2S(), Options{Workers: 1, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := s.RunContext(context.Background(), Morsels(10, 3, "scan", func(start, end int, w *Worker) {}))
	if !errors.Is(runErr, errs.ErrTransient) || !strings.HasPrefix(runErr.Error(), "sched: task scan[0:3] failed: ") {
		t.Fatalf("err = %v, want a transient fault in task scan[0:3]", runErr)
	}
}

func TestRunPropagatesWorkerPanic(t *testing.T) {
	m := hw.Server2S()
	inj := fault.New(fault.Config{Seed: 1, PanicProb: 1, MaxFaults: 1})
	s, err := New(m, Options{Workers: 2, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run should panic on an unrecovered worker panic")
		}
	}()
	s.Run([]Task{fixedTask(100)})
}

func TestFaultStatsAdd(t *testing.T) {
	a := FaultStats{Panics: 1, TaskRetries: 2, Redispatched: 3, StragglersRetired: 4, CoresLost: 5}
	b := a
	a.Add(b)
	want := FaultStats{Panics: 2, TaskRetries: 4, Redispatched: 6, StragglersRetired: 8, CoresLost: 10}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestFaultRunsAreDeterministic(t *testing.T) {
	m := hw.Server2S()
	run := func() Result {
		inj := fault.New(fault.Config{Seed: 5, PanicProb: 0.02, StragglerProb: 0.2, StragglerSkew: 8})
		s, err := New(m, Options{Workers: 8, Stealing: true, Inject: inj, IsolatePanics: true, StragglerThreshold: 3, BlockSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		var ran []int32
		res, err := s.RunContext(context.Background(), countingTasks(128, 100, &ran))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MakespanCycles != b.MakespanCycles || a.FaultStats != b.FaultStats {
		t.Fatalf("not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestDeniedAllocReRunsMorsel: a morsel whose Worker.Alloc is denied returns
// at once. Memory pressure re-runs it on the spot within the morsel's re-run
// budget; a denial that outlasts the budget fails the run typed
// ErrMemoryPressure, and an OOM kill fails it with no re-run.
func TestDeniedAllocReRunsMorsel(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mc          mem.Config
		wantErr     error
		wantRetries int
	}{
		{"one injected denial re-runs",
			mem.Config{BudgetBytes: 1 << 20, Faults: fault.New(fault.Config{Seed: 1, AllocFailProb: 1, MaxFaults: 1})},
			nil, 1},
		{"denied on every attempt",
			mem.Config{BudgetBytes: 1 << 20, Faults: fault.New(fault.Config{Seed: 1, AllocFailProb: 1})},
			errs.ErrMemoryPressure, maxTaskRetries},
		{"oom kill fails at once",
			mem.Config{BudgetBytes: 1 << 10, KillOnOverage: true},
			errs.ErrOOMKilled, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resv := mem.NewGovernor(tc.mc).Reserve("")
			defer resv.Release()
			s, err := New(hw.Server2S(), Options{Workers: 2, Mem: resv})
			if err != nil {
				t.Fatal(err)
			}
			var runs, done int
			task := Task{Name: "alloc", Site: "alloc", Socket: -1, Run: func(w *Worker) {
				runs++
				if !w.Alloc("alloc", 4<<10) {
					return
				}
				defer w.Mem().Uncharge(4 << 10)
				done++
			}}
			res, err := s.RunContext(context.Background(), []Task{task})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("run error = %v, want %v", err, tc.wantErr)
			}
			if res.TaskRetries != tc.wantRetries || runs != tc.wantRetries+1 {
				t.Fatalf("%d retries over %d runs, want %d retries", res.TaskRetries, runs, tc.wantRetries)
			}
			wantDone := 0
			if tc.wantErr == nil {
				wantDone = 1
			}
			if done != wantDone {
				t.Fatalf("body completed %d times, want %d", done, wantDone)
			}
		})
	}
}
