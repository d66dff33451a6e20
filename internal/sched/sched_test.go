package sched

import (
	"context"
	"math"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
	"hwstar/internal/mem"
)

func fixedTask(cycles float64) Task {
	return Task{Socket: -1, Run: func(w *Worker) { w.AdvanceCycles(cycles) }}
}

func TestNewValidation(t *testing.T) {
	m := hw.Server2S()
	if _, err := New(m, Options{Workers: -1}); err == nil {
		t.Fatal("negative workers should fail")
	}
	if _, err := New(m, Options{Workers: 1000}); err == nil {
		t.Fatal("too many workers should fail")
	}
	s, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.opts.Workers != m.TotalCores() {
		t.Fatalf("default workers = %d, want %d", s.opts.Workers, m.TotalCores())
	}
	bad := hw.Server2S()
	bad.MLP = 0
	if _, err := New(bad, Options{}); err == nil {
		t.Fatal("invalid machine should fail")
	}
}

func TestEveryTaskRunsExactlyOnce(t *testing.T) {
	m := hw.Server2S()
	s, _ := New(m, Options{Workers: 7, Stealing: true})
	const n = 100
	runs := make([]int32, n)
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Socket: -1, Run: func(w *Worker) {
			atomic.AddInt32(&runs[i], 1)
			w.AdvanceCycles(10)
		}}
	}
	res := s.Run(tasks)
	if res.TasksRun != n {
		t.Fatalf("TasksRun = %d, want %d", res.TasksRun, n)
	}
	for i, r := range runs {
		if r != 1 {
			t.Fatalf("task %d ran %d times", i, r)
		}
	}
}

func TestMakespanBounds(t *testing.T) {
	m := hw.NUMA4S()
	s, _ := New(m, Options{Workers: 8, Stealing: true})
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = fixedTask(100)
	}
	res := s.Run(tasks)
	if math.Abs(res.TotalCycles-6400) > 1e-9 {
		t.Fatalf("total = %f, want 6400", res.TotalCycles)
	}
	// 64 equal tasks on 8 workers: perfect balance.
	if math.Abs(res.MakespanCycles-800) > 1e-9 {
		t.Fatalf("makespan = %f, want 800", res.MakespanCycles)
	}
	if res.Imbalance() != 0 {
		t.Fatalf("imbalance = %f, want 0", res.Imbalance())
	}
}

func TestSkewedTasksCauseImbalance(t *testing.T) {
	m := hw.Server2S()
	s, _ := New(m, Options{Workers: 4, Stealing: true})
	// One giant task and many small ones: makespan is bounded below by the
	// giant task.
	tasks := []Task{fixedTask(1000)}
	for i := 0; i < 12; i++ {
		tasks = append(tasks, fixedTask(10))
	}
	res := s.Run(tasks)
	if res.MakespanCycles < 1000 {
		t.Fatalf("makespan %f below the critical path 1000", res.MakespanCycles)
	}
	if res.Imbalance() <= 0 {
		t.Fatal("skewed run should report imbalance")
	}
}

func TestStealingDrainsRemoteQueues(t *testing.T) {
	m := hw.Server2S() // 2 sockets × 8 cores
	// All tasks pinned to socket 0; workers span both sockets.
	mk := func(stealing bool) Result {
		s, _ := New(m, Options{Workers: 16, Stealing: stealing})
		tasks := make([]Task, 64)
		for i := range tasks {
			tasks[i] = fixedTask(100)
			tasks[i].Socket = 0
		}
		return s.Run(tasks)
	}
	with := mk(true)
	without := mk(false)
	if with.Steals == 0 {
		t.Fatal("expected steals when all work is on one socket")
	}
	if without.Steals != 0 {
		t.Fatal("stealing disabled must not steal")
	}
	// Stealing lets 16 workers share the load: roughly halves the makespan.
	if with.MakespanCycles >= without.MakespanCycles {
		t.Fatalf("stealing makespan %f should beat no-stealing %f", with.MakespanCycles, without.MakespanCycles)
	}
	if without.TasksRun != 64 || with.TasksRun != 64 {
		t.Fatal("all tasks must run either way")
	}
}

func TestChargeUsesSocketOccupancy(t *testing.T) {
	m := hw.Server2S()
	memWork := hw.Work{SeqReadBytes: 1 << 20}
	run := func(workers int) Result {
		s, _ := New(m, Options{Workers: workers})
		tasks := make([]Task, workers)
		for i := range tasks {
			tasks[i] = Task{Socket: -1, Run: func(w *Worker) { w.Charge(memWork) }}
		}
		return s.Run(tasks)
	}
	r1 := run(1)
	r8 := run(8)
	// Eight co-located memory-bound tasks contend for socket bandwidth: the
	// parallel makespan cannot beat serial by 8×.
	if r8.MakespanCycles <= r1.MakespanCycles {
		t.Fatalf("8-worker makespan %f should exceed 1-worker %f per task (bandwidth wall)",
			r8.MakespanCycles, r1.MakespanCycles)
	}
}

func TestInterferenceSlowsRun(t *testing.T) {
	m := hw.Laptop()
	work := hw.Work{SeqReadBytes: 1 << 20}
	run := func(inter float64) float64 {
		s, _ := New(m, Options{Workers: 2, Interference: inter})
		tasks := []Task{
			{Socket: -1, Run: func(w *Worker) { w.Charge(work) }},
			{Socket: -1, Run: func(w *Worker) { w.Charge(work) }},
		}
		return s.Run(tasks).MakespanCycles
	}
	if noisy, quiet := run(3), run(1); noisy <= quiet {
		t.Fatalf("interference should slow the run: %f <= %f", noisy, quiet)
	}
}

func TestWorkerAccessors(t *testing.T) {
	m := hw.Laptop()
	resv, err := mem.NewGovernor(mem.Config{BudgetBytes: 1 << 20}).Reserve(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(m, Options{Workers: 2, Mem: resv})
	var sawTotal, sawMem bool
	tasks := []Task{{Socket: -1, Run: func(w *Worker) {
		sawTotal = w.TotalWorkers() == 2
		sawMem = w.Mem() == resv
		w.AdvanceCycles(1)
	}}}
	if res := s.Run(tasks); res.MakespanCycles != 1 {
		t.Fatalf("makespan = %f, want the 1 cycle advanced", res.MakespanCycles)
	}
	if !sawTotal || !sawMem {
		t.Fatal("worker accessors wrong")
	}
}

func TestTaskCannotRewindClock(t *testing.T) {
	m := hw.Laptop()
	s, _ := New(m, Options{Workers: 1})
	tasks := []Task{
		fixedTask(100),
		{Socket: -1, Run: func(w *Worker) { w.AdvanceCycles(-500) }},
		fixedTask(50),
	}
	res := s.Run(tasks)
	if res.MakespanCycles < 150 {
		t.Fatalf("negative advance must not rewind: makespan %f", res.MakespanCycles)
	}
}

func TestMorsels(t *testing.T) {
	var covered []int
	tasks := Morsels(10, 3, "scan", func(start, end int, w *Worker) {
		for i := start; i < end; i++ {
			covered = append(covered, i)
		}
	})
	if len(tasks) != 4 {
		t.Fatalf("tasks = %d, want 4", len(tasks))
	}
	m := hw.Laptop()
	s, _ := New(m, Options{Workers: 1})
	s.Run(tasks)
	sort.Ints(covered)
	for i, v := range covered {
		if v != i {
			t.Fatalf("coverage hole: %v", covered)
		}
	}
	if len(covered) != 10 {
		t.Fatalf("covered %d items, want 10", len(covered))
	}
}

// TestMorselsAllocs: building a request's morsels allocates the task slice
// and nothing else — every morsel shares fn, so there is no closure per
// morsel, and no name.
func TestMorselsAllocs(t *testing.T) {
	const morsels = 64
	got := testing.AllocsPerRun(10, func() {
		Morsels(morsels<<14, 1<<14, "scan", func(start, end int, w *Worker) {})
	})
	if got > 1 {
		t.Fatalf("Morsels made %.0f allocations for %d morsels, want 1", got, morsels)
	}
}

// BenchmarkMorsels is one scan request's scheduling: cut 1 Mi rows into 64
// morsels and run them over the machine's cores.
func BenchmarkMorsels(b *testing.B) {
	s, err := New(hw.Server2S(), Options{Stealing: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tasks := Morsels(1<<20, 1<<14, "scan", func(start, end int, w *Worker) {
			w.AdvanceCycles(float64(end - start))
		})
		if _, err := s.RunContext(context.Background(), tasks); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunMorselsAligned(t *testing.T) {
	m := hw.Laptop()
	s, _ := New(m, Options{Workers: 1})
	count := func(n, size, align int) int {
		res, err := s.RunMorsels(context.Background(), n, size, align, "vec", func(start, end int, w *Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		return res.TasksRun
	}
	// Size 1000 with align 1024 snaps up to one block per morsel.
	if n := count(4096, 1000, 1024); n != 4 {
		t.Fatalf("snapped-up morsels = %d, want 4", n)
	}
	// Zero align leaves the size as given.
	if n := count(10, 3, 0); n != 4 {
		t.Fatalf("align 0 morsels = %d, want 4", n)
	}
	// Size 1500 snaps to 2048; boundaries must all be multiples of 1024
	// except the final end.
	got := 0
	_, err := s.RunMorsels(context.Background(), 5000, 1500, 1024, "vec2", func(start, end int, w *Worker) {
		if start%1024 != 0 {
			t.Errorf("morsel start %d not block-aligned", start)
		}
		if end != 5000 && end%1024 != 0 {
			t.Errorf("morsel end %d not block-aligned", end)
		}
		got += end - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5000 {
		t.Fatalf("covered %d rows, want 5000", got)
	}
}

func TestMorselsDefaultSize(t *testing.T) {
	tasks := Morsels(100, 0, "x", func(s, e int, w *Worker) {})
	if len(tasks) != 1 {
		t.Fatalf("default morsel size should cover 100 items in one task, got %d", len(tasks))
	}
}

func TestEmptyTaskList(t *testing.T) {
	m := hw.Laptop()
	s, _ := New(m, Options{Workers: 2})
	res := s.Run(nil)
	if res.TasksRun != 0 || res.MakespanCycles != 0 {
		t.Fatalf("empty run = %+v", res)
	}
}

// Property: for any task durations, the greedy schedule satisfies the classic
// list-scheduling bounds: max(duration) <= makespan and
// total/P <= makespan <= total/P + max(duration).
func TestListSchedulingBoundsProperty(t *testing.T) {
	m := hw.NUMA4S()
	f := func(durRaw []uint16, workersRaw uint8) bool {
		if len(durRaw) == 0 {
			return true
		}
		workers := int(workersRaw)%16 + 1
		s, err := New(m, Options{Workers: workers, Stealing: true})
		if err != nil {
			return false
		}
		var total, maxDur float64
		tasks := make([]Task, len(durRaw))
		for i, d := range durRaw {
			dur := float64(d) + 1
			total += dur
			if dur > maxDur {
				maxDur = dur
			}
			tasks[i] = fixedTask(dur)
		}
		res := s.Run(tasks)
		p := float64(workers)
		lower := math.Max(total/p, maxDur)
		upper := total/p + maxDur
		return res.MakespanCycles >= lower-1e-6 && res.MakespanCycles <= upper+1e-6 &&
			math.Abs(res.TotalCycles-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two runs of the same task set yield identical
// results.
func TestSchedulerDeterminismProperty(t *testing.T) {
	m := hw.Server2S()
	f := func(durRaw []uint8, workersRaw uint8, stealing bool) bool {
		workers := int(workersRaw)%8 + 1
		run := func() Result {
			s, _ := New(m, Options{Workers: workers, Stealing: stealing})
			tasks := make([]Task, len(durRaw))
			for i, d := range durRaw {
				tasks[i] = fixedTask(float64(d) + 1)
				tasks[i].Socket = i % m.Sockets
			}
			return s.Run(tasks)
		}
		a, b := run(), run()
		if a.MakespanCycles != b.MakespanCycles || a.Steals != b.Steals || a.TasksRun != b.TasksRun {
			return false
		}
		for i := range a.PerWorker {
			if a.PerWorker[i] != b.PerWorker[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
