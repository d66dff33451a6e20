package agg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/sched"
	"hwstar/internal/workload"
)

// pooledInputs are the shapes a group table can be wrong on: no rows, one
// group, no two rows alike, and the keys an open-addressing table could
// mistake for an empty slot or overflow a hash on.
func pooledInputs() map[string][2][]int64 {
	rng := rand.New(rand.NewSource(21))
	extremes := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -4096, 4096}
	in := map[string][2][]int64{
		"empty":    {nil, nil},
		"few-rows": {{0, math.MinInt64, 0}, {5, 6, 7}},
		"zipf":     {workload.ZipfInts(1, 20000, 500, 1.3), workload.UniformInts(2, 20000, 1000)},
	}
	single, distinct, mixed := make([]int64, 5000), make([]int64, 3000), make([]int64, 9000)
	for i := range single {
		single[i] = 7
	}
	for i := range distinct {
		distinct[i] = int64(i-1500) * 0x9E3779B97F4A7C1
	}
	for i := range mixed {
		mixed[i] = extremes[rng.Intn(len(extremes))]
		if rng.Intn(3) == 0 {
			mixed[i] = rng.Int63n(300) - 150
		}
	}
	for name, keys := range map[string][]int64{"single-group": single, "all-distinct": distinct, "extremes": mixed} {
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = rng.Int63n(2001) - 1000
		}
		in[name] = [2][]int64{keys, vals}
	}
	return in
}

// pooledRuns are the four executions that take tables from the pool: the
// three strategies, and the spill path any of them degrades to when the
// group table does not fit its reservation.
var pooledRuns = []struct {
	name    string
	strat   Strategy
	spilled bool
}{
	{"global", StrategyGlobal, false},
	{"local", StrategyLocalMerge, false},
	{"radix", StrategyRadix, false},
	{"spill", StrategyLocalMerge, true},
}

// pooledSched builds a scheduler for one run; spilled gives it a reservation
// no table of more than a few hundred groups fits in.
func pooledSched(t *testing.T, m *hw.Machine, spilled bool, opts sched.Options) *sched.Scheduler {
	t.Helper()
	opts.Workers, opts.Stealing = 4, true
	if spilled {
		resv, err := mem.NewGovernor(mem.Config{BudgetBytes: 64 << 10}).Reserve(8 << 10)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(resv.Release)
		opts.Mem = resv
	}
	s, err := sched.New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPooledTablesMatchSerial: every execution equals Serial on every input
// shape, twice over, so the second pass runs on tables the first returned.
func TestPooledTablesMatchSerial(t *testing.T) {
	m := hw.Laptop()
	var spills int
	for round := 0; round < 2; round++ {
		for name, in := range pooledInputs() {
			want := Serial(in[0], in[1])
			for _, run := range pooledRuns {
				res, err := Parallel(context.Background(), in[0], in[1], run.strat, pooledSched(t, m, run.spilled, sched.Options{}), m, 512)
				if err != nil {
					t.Fatalf("round %d %s/%s: %v", round, name, run.name, err)
				}
				if !reflect.DeepEqual(res.Groups, want) {
					t.Errorf("round %d %s/%s: %d groups, want %d, or sums differ", round, name, run.name, len(res.Groups), len(want))
				}
				if res.Spilled {
					spills++
				}
			}
		}
	}
	if spills == 0 {
		t.Error("no run spilled: the spill path went untested")
	}
}

// TestRedispatchedMorselsCountOnce: with panics injected at morsel
// boundaries and isolated, a morsel runs again on another worker. Its
// table is the one its first dispatch was given; the sums stay exact.
func TestRedispatchedMorselsCountOnce(t *testing.T) {
	m := hw.Laptop()
	var panics int
	for seed := int64(1); seed <= 6; seed++ {
		for name, in := range pooledInputs() {
			want := Serial(in[0], in[1])
			for _, run := range pooledRuns {
				s := pooledSched(t, m, run.spilled, sched.Options{
					Inject:        fault.New(fault.Config{Seed: seed, PanicProb: 0.05}),
					IsolatePanics: true, MaxTaskRetries: 16,
				})
				res, err := Parallel(context.Background(), in[0], in[1], run.strat, s, m, 256)
				for _, ph := range res.Phases {
					panics += ph.Panics
				}
				if err != nil {
					// Every worker may be retired before the work is done; that
					// is an error, never a wrong answer.
					if res.Groups != nil {
						t.Errorf("seed %d %s/%s: failed (%v) yet returned groups", seed, name, run.name, err)
					}
					continue
				}
				if !reflect.DeepEqual(res.Groups, want) {
					t.Errorf("seed %d %s/%s: sums differ from the serial reference after re-dispatch", seed, name, run.name)
				}
			}
		}
	}
	if panics == 0 {
		t.Error("no panic was injected: re-dispatch went untested")
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err call
// on. The scheduler polls Err at every morsel boundary, so a phase stops with
// some morsels' tables filled and the rest never taken.
type cancelAfter struct {
	context.Context
	left *int
}

func (c cancelAfter) Err() error {
	if *c.left--; *c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledQueryLeavesThePoolClean: a query cancelled part-way through a
// phase returns half-filled tables. The query after it, on other data with
// the same shape (so it draws the same capacity classes), must not see them.
func TestCancelledQueryLeavesThePoolClean(t *testing.T) {
	m := hw.Laptop()
	dirty := pooledInputs()["zipf"]
	keys, vals := workload.ZipfInts(9, 20000, 500, 1.3), workload.UniformInts(10, 20000, 1000)
	want := Serial(keys, vals)
	for _, run := range pooledRuns {
		// 40 morsels in the first phase; the later points land in the second
		// phase of the executions that have one.
		for _, after := range []int{3, 17, 39, 42, 47} {
			left := after
			_, err := Parallel(cancelAfter{context.Background(), &left}, dirty[0], dirty[1], run.strat, pooledSched(t, m, run.spilled, sched.Options{}), m, 512)
			if !errors.Is(err, context.Canceled) && (err != nil || after < 40) {
				t.Fatalf("%s: cancelled after %d morsels: err = %v", run.name, after, err)
			}
			res, err := Parallel(context.Background(), keys, vals, run.strat, pooledSched(t, m, run.spilled, sched.Options{}), m, 512)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Groups, want) {
				t.Errorf("%s: the query after one cancelled at morsel %d got wrong sums", run.name, after)
			}
		}
	}
}

// TestGroupSumAllocs pins what a warm local-merge group-sum of hwperf's shape
// (65536 rows, 4096 keys) allocates: the result map, and little else — the
// distinct set, the four per-morsel tables and the merged table all come
// back from the pool. With a Go map per morsel it was 6.8x the map (1.0 MB).
func TestGroupSumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	m := hw.Server2S()
	keys, vals := benchInput(65536, 4096)
	s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[int64]int64 {
		res, err := Parallel(context.Background(), keys, vals, StrategyLocalMerge, s, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Groups
	}
	run() // warm the pool

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var final map[int64]int64
	for i := 0; i < 4; i++ {
		final = make(map[int64]int64, 4096)
	}
	runtime.ReadMemStats(&m1)
	mapBytes := (m1.TotalAlloc - m0.TotalAlloc) / 4

	// A GC between two runs empties the pool and the next run rebuilds it;
	// the pin is the steady state, so take the cheapest of a few runs.
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		final = run()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if len(final) != 4096 {
		t.Fatalf("%d groups, want 4096", len(final))
	}
	if limit := mapBytes * 5 / 4; best > limit {
		t.Fatalf("a warm group-sum allocated %d bytes; the result map alone is %d, limit %d", best, mapBytes, limit)
	}
}

// BenchmarkGroupSum runs each strategy on hwperf's group-sum shape.
func BenchmarkGroupSum(b *testing.B) {
	m := hw.Server2S()
	keys, vals := benchInput(65536, 4096)
	for _, run := range pooledRuns[:3] {
		b.Run(run.name, func(b *testing.B) {
			s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parallel(context.Background(), keys, vals, run.strat, s, m, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
