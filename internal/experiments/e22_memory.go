package experiments

import (
	"context"
	"errors"
	"sort"

	"hwstar/internal/agg"
	"hwstar/internal/bench"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/sched"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E22",
		Title: "Memory pressure: unbounded allocation vs governed spill and shed",
		Claim: "a byte budget enforced at allocation turns memory overload from simulated OOM kills into graceful degradation: every query completes, spilled plans pay a bounded bandwidth premium, and p99 stays bounded while the ungoverned engine aborts",
		Run:   runE22,
	})
}

// runE22Curve runs one governed aggregation at each budget fraction and
// reports the degradation curve: as the budget shrinks below the table
// footprint the operator spills at a growing fan-out, peak footprint stays
// under the budget, and the cost rises only by the spill tier's bandwidth
// premium — the graceful half of the experiment's claim.
func runE22Curve(cfg Config, m *hw.Machine) (*Table, error) {
	rows := cfg.scaled(1<<18, 1<<14)
	groups := int64(cfg.scaled(1<<15, 1<<11))
	keys := workload.UniformInts(2201, rows, groups)
	vals := workload.UniformInts(2202, rows, 1000)
	tableBytes := int64(len(agg.Serial(keys, vals))) * 34 // groupEntryBytes

	t := bench.NewTable("E22: governed aggregation degradation curve, "+bench.F("%d", rows)+" rows, table ≈ "+bench.F("%.0f", float64(tableBytes)/1024)+" KiB",
		"budget", "completed", "spilled", "spill KiB", "peak KiB", "makespan Mcyc", "vs unlimited")
	var baseline float64
	for _, frac := range []struct {
		name string
		div  int64 // 0 = unlimited
	}{{"unlimited", 0}, {"1/2 table", 2}, {"1/4 table", 4}, {"1/8 table", 8}} {
		var resv *mem.Reservation // nil: unlimited
		if frac.div > 0 {
			// The query is the budget's only holder: all of it is Available.
			resv = mem.NewGovernor(mem.Config{BudgetBytes: tableBytes / frac.div}).Reserve("")
		}
		s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true, Mem: resv, BlockSize: 8})
		if err != nil {
			return nil, err
		}
		res, err := agg.Parallel(context.Background(), keys, vals, agg.StrategyGlobal, s, m, 0, nil)
		if err != nil {
			return nil, err
		}
		if frac.div == 0 {
			baseline = res.MakespanCycles
		}
		ratio := 1.0
		if baseline > 0 {
			ratio = res.MakespanCycles / baseline
		}
		t.AddRow(frac.name,
			bench.F("%v", err == nil),
			bench.F("%v", res.Spilled),
			bench.F("%.0f", float64(res.SpillBytes)/1024),
			bench.F("%.0f", float64(resv.PeakBytes())/1024),
			bench.F("%.2f", res.MakespanCycles/1e6),
			bench.F("%.2fx", ratio))
		resv.Release()
	}
	t.AddNote("shrinking the budget below the table footprint trades memory for spill-tier bandwidth: peak stays under budget while the makespan grows by the partition write+read premium, priced like any other tier in the hardware model")
	return t, nil
}

// runE22Serve compares servers on the same memory-hostile query sequence:
// ungoverned-naive (KillOnOverage: allocation always succeeds, but crossing
// the budget is a simulated OOM kill), governed, and governed under injected
// allocation faults. A query is submitted once: an allocation denied inside
// a morsel re-runs that morsel in the scheduler, so the client resubmits
// nothing. Sequential submissions with MaxBatch=1 keep every engine's fault
// and allocation draw order deterministic.
func runE22Serve(cfg Config, m *hw.Machine) (*Table, error) {
	rows := cfg.scaled(1<<16, 1<<13)
	queriesN := cfg.scaled(120, 24)
	const budget = int64(48 << 10)

	// Alternate small (in-budget) and large (over-budget) aggregations: the
	// hostile half of the workload is what separates the engines.
	reqs := make([]serve.Request, queriesN)
	for i := 0; i < queriesN; i++ {
		groups := int64(256) // ≈ 8.5 KiB table: fits any engine
		if i%2 == 1 {
			groups = 4096 // ≈ 136 KiB table: over budget, must spill or die
		}
		keys := workload.UniformInts(2300+int64(i), rows, groups)
		vals := workload.UniformInts(2400+int64(i), rows, 1000)
		reqs[i] = serve.Request{Op: serve.OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyGlobal}
	}

	type engineStats struct {
		completed, aborted, spills int
		oomKills, reruns           int64
		p50, p99                   float64
		spillKiB                   float64
	}
	runEngine := func(mc mem.Config, inj *fault.Injector) (engineStats, error) {
		var st engineStats
		s, err := serve.New(m, serve.Options{
			QueueDepth: 4, MaxBatch: 1, Workers: 8, OpWorkers: 8,
			SchedBlockSize: 8,
			Memory:         mc,
			Faults:         inj,
		})
		if err != nil {
			return st, err
		}
		defer s.Close()
		var cycles []float64
		for i := 0; i < queriesN; i++ {
			resp, err := s.Submit(context.Background(), reqs[i])
			if err != nil {
				if !errors.Is(err, errs.ErrOOMKilled) && !errors.Is(err, errs.ErrMemoryPressure) {
					return st, err
				}
				st.aborted++
				continue
			}
			st.completed++
			if resp.Spilled {
				st.spills++
			}
			cycles = append(cycles, resp.SimCycles/1e6)
		}
		if len(cycles) > 0 {
			sort.Float64s(cycles)
			st.p50 = cycles[len(cycles)/2]
			st.p99 = cycles[int(0.99*float64(len(cycles)-1))]
		}
		h := s.Health()
		st.oomKills = h.OOMKilled
		st.reruns = h.Retries
		st.spillKiB = float64(h.SpillBytes) / 1024
		return st, nil
	}

	t := bench.NewTable("E22: serving a memory-hostile sequence, "+bench.F("%d", queriesN)+" group-bys (half over a "+bench.F("%d", budget>>10)+" KiB budget) on one server",
		"engine", "completed", "aborted", "morsel re-runs", "oom kills", "spilled", "spill KiB", "p50 Mcyc", "p99 Mcyc")
	rowsSpec := []struct {
		name string
		mc   mem.Config
		inj  *fault.Injector
	}{
		{"naive (unbounded)", mem.Config{BudgetBytes: budget, KillOnOverage: true}, nil},
		{"governed", mem.Config{BudgetBytes: budget}, nil},
		{"governed + alloc faults", mem.Config{BudgetBytes: budget},
			fault.New(fault.Config{Seed: 2299, AllocFailProb: 0.02})},
	}
	for _, spec := range rowsSpec {
		st, err := runEngine(spec.mc, spec.inj)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.name,
			bench.F("%d/%d", st.completed, queriesN),
			bench.F("%d", st.aborted),
			bench.F("%d", st.reruns),
			bench.F("%d", st.oomKills),
			bench.F("%d", st.spills),
			bench.F("%.0f", st.spillKiB),
			bench.F("%.2f", st.p50),
			bench.F("%.2f", st.p99))
	}
	t.AddNote("the naive engine allocates without asking and is OOM-killed by every over-budget table; the governed engine degrades the same queries to grace-hash spill plans and completes all of them with a bounded p99")
	t.AddNote("under allocation faults every query completes on its one submission: a morsel denied a charge re-runs in the scheduler, and an aggregation denied its group table spills")
	return t, nil
}

func runE22(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	t1, err := runE22Curve(cfg, m)
	if err != nil {
		return nil, err
	}
	t2, err := runE22Serve(cfg, m)
	if err != nil {
		return nil, err
	}
	return []*Table{t1, t2}, nil
}
