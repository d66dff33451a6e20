package sched

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"hwstar/internal/fault"
	"hwstar/internal/hw"
)

// TestRunMorselsAllocs: a warm RunMorsels takes its workers, accounts, socket
// queues and morsel list from the pool and returns a Result of scalars, so
// it allocates nothing, at 64 morsels as at 1024.
func TestRunMorselsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s, err := New(hw.Server2S(), Options{Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	body := func(start, end int, w *Worker) { w.AdvanceCycles(float64(end - start)) }
	for _, morsels := range []int{64, 1024} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := s.RunMorsels(context.Background(), morsels<<14, 1<<14, 0, "scan", body); err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("RunMorsels of %d morsels made %.0f allocations, want none", morsels, got)
		}
	}
}

// TestPooledRunStateIsResetInFull runs a schedule that loses cores, retires
// a straggler and isolates a panic, then a clean run on the same scheduler:
// its Result must equal, field by field, the clean run done first. Anything
// the faulty run left in the pooled state — a retired worker, a skewed
// clock, a queue head — would show as a silently different cycle count.
func TestPooledRunStateIsResetInFull(t *testing.T) {
	m := hw.Server2S()
	opts := Options{Workers: 8, Stealing: true, IsolatePanics: true, StragglerThreshold: 3, BlockSize: 4}
	body := func(start, end int, w *Worker) { w.AdvanceCycles(float64(100 * (end - start))) }
	run := func(s *Scheduler) Result {
		t.Helper()
		res, err := s.RunMorsels(context.Background(), 1<<10, 8, 0, "hygiene", body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref)

	// The first seed whose fault budget is spent on all three classes in
	// one run: after it the injector is quiet and the scheduler runs clean.
	const budget = 6
	for seed := int64(1); seed <= 1000; seed++ {
		inj := fault.New(fault.Config{Seed: seed, CoreLossProb: 0.2, StragglerProb: 0.2, StragglerSkew: 8, PanicProb: 0.02, MaxFaults: budget})
		faulty := opts
		faulty.Inject = inj
		s, err := New(m, faulty)
		if err != nil {
			t.Fatal(err)
		}
		res := run(s)
		if res.CoresLost == 0 || res.StragglersRetired == 0 || res.Panics == 0 || len(inj.Log()) != budget {
			continue
		}
		if got := run(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("clean run after a faulty one (seed %d):\n%+v\nwant, as run first:\n%+v", seed, got, want)
		}
		return
	}
	t.Fatal("no seed in 1..1000 injects core loss, a retired straggler and a panic in one run")
}

// TestRunMorselsFoldsEachMorselOnce: a body in the accumulate-then-fold shape
// serve's scan pass uses — clear a scratch value, add the range into it,
// fold it into the total as the last statement — panics once half-way
// through a morsel. Under IsolatePanics the morsel re-runs on another worker
// and the total is still exact.
func TestRunMorselsFoldsEachMorselOnce(t *testing.T) {
	s, err := New(hw.Server2S(), Options{Workers: 4, Stealing: true, IsolatePanics: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	var total, row int64
	panicked := false
	res, err := s.RunMorsels(context.Background(), n, 64, 0, "fold", func(start, end int, w *Worker) {
		row = 0
		for i := start; i < end; i++ {
			if !panicked && start == 320 && i == start+(end-start)/2 {
				panicked = true
				panic("half-way through the morsel")
			}
			row += int64(i)
		}
		total += row
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Panics != 1 || res.TaskRetries != 1 {
		t.Fatalf("faults = %+v, want 1 panic and 1 retry", res.FaultStats)
	}
	if want := int64(n * (n - 1) / 2); total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

// TestTaskBodiesRunOnCallingGoroutine pins the contract the package
// documents and serve's pass accumulator relies on: task bodies run one at a
// time, on the goroutine that called RunContext or RunMorsels. The plain
// (non-atomic) counters are themselves the check under -race.
func TestTaskBodiesRunOnCallingGoroutine(t *testing.T) {
	s, err := New(hw.Server2S(), Options{Stealing: true, BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	caller := goroutineID()
	inFlight, ran := 0, 0
	body := func(w *Worker) {
		inFlight++
		if inFlight != 1 {
			t.Errorf("%d task bodies in flight", inFlight)
		}
		if id := goroutineID(); id != caller {
			t.Errorf("task body on goroutine %s, caller is %s", id, caller)
		}
		w.AdvanceCycles(10)
		ran++
		inFlight--
	}
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = Task{Socket: i % 2, Run: body}
	}
	if _, err := s.RunContext(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunMorsels(context.Background(), 100, 1, 0, "seq", func(_, _ int, w *Worker) { body(w) }); err != nil {
		t.Fatal(err)
	}
	if ran != 200 {
		t.Fatalf("%d task bodies ran, want 200", ran)
	}
}

// goroutineID is the calling goroutine's number, from its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}
