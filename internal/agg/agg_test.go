package agg

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/sched"
	"hwstar/internal/workload"
)

func newSched(t *testing.T, m *hw.Machine, workers int) *sched.Scheduler {
	t.Helper()
	s, err := sched.New(m, sched.Options{Workers: workers, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSerialReference(t *testing.T) {
	keys := []int64{1, 2, 1, 3, 2, 1}
	vals := []int64{10, 20, 30, 40, 50, 60}
	got := Serial(keys, vals)
	want := map[int64]int64{1: 100, 2: 70, 3: 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serial = %v, want %v", got, want)
	}
	if len(Serial(nil, nil)) != 0 {
		t.Fatal("empty input should produce no groups")
	}
}

func TestAllStrategiesMatchSerial(t *testing.T) {
	m := hw.Server2S()
	keys := workload.ZipfInts(1, 20000, 500, 1.3)
	vals := workload.UniformInts(2, 20000, 1000)
	want := Serial(keys, vals)
	for _, strat := range []Strategy{StrategyGlobal, StrategyLocalMerge, StrategyRadix} {
		s := newSched(t, m, 8)
		res, err := Parallel(context.Background(), keys, vals, strat, s, m, 1024, nil)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !reflect.DeepEqual(res.Groups, want) {
			t.Fatalf("%s: wrong groups (got %d, want %d entries)", strat, len(res.Groups), len(want))
		}
		if res.MakespanCycles <= 0 {
			t.Fatalf("%s: no cycles charged", strat)
		}
	}
}

func TestParallelValidation(t *testing.T) {
	m := hw.Laptop()
	s := newSched(t, m, 2)
	if _, err := Parallel(context.Background(), []int64{1}, nil, StrategyGlobal, s, m, 0, nil); err == nil {
		t.Fatal("mismatched inputs should fail")
	}
	if _, err := Parallel(context.Background(), nil, nil, Strategy("bogus"), s, m, 0, nil); err == nil {
		t.Fatal("unknown strategy should fail")
	}
}

func TestEmptyInput(t *testing.T) {
	m := hw.Laptop()
	for _, strat := range []Strategy{StrategyGlobal, StrategyLocalMerge, StrategyRadix} {
		s := newSched(t, m, 2)
		res, err := Parallel(context.Background(), nil, nil, strat, s, m, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Groups) != 0 {
			t.Fatalf("%s: groups = %v", strat, res.Groups)
		}
	}
}

func TestGlobalContentionGrowsWithWorkers(t *testing.T) {
	m := hw.NUMA4S()
	// Few groups: heavy contention on the shared table.
	keys := workload.UniformInts(1, 1<<16, 8)
	vals := workload.UniformInts(2, 1<<16, 100)
	perTuple := func(workers int) float64 {
		s := newSched(t, m, workers)
		res, err := Parallel(context.Background(), keys, vals, StrategyGlobal, s, m, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Total busy cycles per tuple: contention inflates per-update cost.
		return res.Phases[0].TotalCycles / float64(len(keys))
	}
	if c1, c32 := perTuple(1), perTuple(32); c32 <= c1 {
		t.Fatalf("global strategy per-tuple cost should grow with workers: %f <= %f", c32, c1)
	}
}

func TestRadixBeatsGlobalOnFewGroupsManyWorkers(t *testing.T) {
	m := hw.NUMA4S()
	keys := workload.UniformInts(3, 1<<17, 64)
	vals := workload.UniformInts(4, 1<<17, 100)
	run := func(strat Strategy) float64 {
		s := newSched(t, m, 32)
		res, err := Parallel(context.Background(), keys, vals, strat, s, m, 2048, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanCycles
	}
	global, radix := run(StrategyGlobal), run(StrategyRadix)
	if radix >= global {
		t.Fatalf("contended global (%.0f) should lose to radix (%.0f) at 32 workers / 64 groups", global, radix)
	}
	localMerge := run(StrategyLocalMerge)
	if localMerge >= global {
		t.Fatalf("local-merge (%.0f) should also beat contended global (%.0f) on few groups", localMerge, global)
	}
}

func TestLocalMergePaysForHighCardinality(t *testing.T) {
	m := hw.Server2S()
	// Groups ≈ rows: local tables are as large as the problem and the merge
	// phase redoes all the work serially.
	keys := workload.UniformInts(5, 1<<16, 1<<30)
	vals := workload.UniformInts(6, 1<<16, 100)
	run := func(strat Strategy) float64 {
		s := newSched(t, m, 16)
		res, err := Parallel(context.Background(), keys, vals, strat, s, m, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanCycles
	}
	if lm, rx := run(StrategyLocalMerge), run(StrategyRadix); rx >= lm {
		t.Fatalf("high-cardinality: radix (%.0f) should beat local-merge (%.0f)", rx, lm)
	}
}

func TestRadixPhases(t *testing.T) {
	m := hw.Server2S()
	keys := workload.UniformInts(7, 5000, 1<<20)
	vals := workload.UniformInts(8, 5000, 100)
	s := newSched(t, m, 4)
	res, err := Parallel(context.Background(), keys, vals, StrategyRadix, s, m, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("radix should have 2 phases, got %d", len(res.Phases))
	}
	if !reflect.DeepEqual(res.Groups, Serial(keys, vals)) {
		t.Fatal("radix result wrong")
	}
}

// Property: every strategy computes exactly the serial aggregation for
// arbitrary inputs.
func TestStrategiesEquivalenceProperty(t *testing.T) {
	m := hw.Laptop()
	f := func(rawKeys []uint8, rawVals []uint8, workersRaw uint8) bool {
		n := len(rawKeys)
		if len(rawVals) < n {
			n = len(rawVals)
		}
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			keys[i] = int64(rawKeys[i] % 16)
			vals[i] = int64(rawVals[i])
		}
		want := Serial(keys, vals)
		workers := int(workersRaw)%4 + 1
		for _, strat := range []Strategy{StrategyGlobal, StrategyLocalMerge, StrategyRadix} {
			s, err := sched.New(m, sched.Options{Workers: workers, Stealing: true})
			if err != nil {
				return false
			}
			res, err := Parallel(context.Background(), keys, vals, strat, s, m, 8, nil)
			if err != nil || !reflect.DeepEqual(res.Groups, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledAggSurvivesDeniedPartitionCharge: a spilled aggregation whose
// partition-table charge is denied once by an injected allocation fault
// re-runs that partition and returns the exact groups, not an error.
func TestSpilledAggSurvivesDeniedPartitionCharge(t *testing.T) {
	m := hw.Server2S()
	keys := workload.UniformInts(3, 1<<14, 4096)
	vals := workload.UniformInts(4, 1<<14, 1000)
	inj := fault.New(fault.Config{Seed: 1, AllocFailSites: map[string]float64{"agg-spill-reduce": 1}, MaxFaults: 1})
	resv := mem.NewGovernor(mem.Config{BudgetBytes: 48 << 10, Faults: inj}).Reserve("")
	defer resv.Release()
	s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true, Mem: resv})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallel(context.Background(), keys, vals, StrategyGlobal, s, m, 1024, nil)
	if err != nil {
		t.Fatalf("spilled aggregation with one denied partition charge: %v", err)
	}
	if !res.Spilled {
		t.Fatal("the group table fit the budget: the spill path never ran")
	}
	if got := inj.Counts()[fault.ClassAllocFail]; got != 1 {
		t.Fatalf("%d alloc faults fired, want 1", got)
	}
	if !reflect.DeepEqual(res.Groups, Serial(keys, vals)) {
		t.Fatalf("groups diverged from the serial reference (%d groups)", len(res.Groups))
	}
}
