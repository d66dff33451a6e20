package experiments

import (
	"context"
	"hwstar/internal/agg"
	"hwstar/internal/bench"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/sched"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E2",
		Title: "Multicore scaling of scan / aggregation / join",
		Claim: "performance now comes from cores, but memory bandwidth walls off linear speedup",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E2a",
		Title: "Work stealing ablation under task skew",
		Claim: "static partitioning leaves cores idle when work is skewed",
		Run:   runE2a,
	})
	register(Experiment{
		ID:    "E2b",
		Title: "Morsel size sweep",
		Claim: "morsels must be small enough to balance, large enough to amortize dispatch",
		Run:   runE2b,
	})
}

func runE2(cfg Config) ([]*Table, error) {
	m := hw.NUMA4S()
	rows := cfg.scaled(1<<22, 1<<14)
	keys := workload.ZipfInts(201, rows, int64(rows/64)+1, 1.1)
	vals := workload.UniformInts(202, rows, 1000)
	jin := joinInput(workload.JoinConfig{Seed: 203, BuildRows: rows / 8, ProbeRows: rows / 2})

	t := bench.NewTable("E2: simulated speedup vs cores ("+m.Name+", memory-bound scan / radix agg / radix join)",
		"cores", "scan speedup", "agg speedup", "join speedup", "ideal")

	workers := []int{1, 2, 4, 8, 16, 32, 64}
	var scan1, agg1, join1 float64
	for _, w := range workers {
		if w > m.TotalCores() {
			break
		}
		// Scan: pure streaming morsels.
		s, err := sched.New(m, sched.Options{Workers: w, Stealing: true})
		if err != nil {
			return nil, err
		}
		tasks := sched.Morsels(rows, 1<<14, "scan", func(start, end int, wk *sched.Worker) {
			wk.Charge(hw.Work{Name: "scan", Tuples: int64(end - start), ComputePerTuple: 2,
				SeqReadBytes: int64(end-start) * 16})
		})
		scanMk := s.Run(tasks).MakespanCycles

		// Aggregation: radix-partitioned.
		s2, err := sched.New(m, sched.Options{Workers: w, Stealing: true})
		if err != nil {
			return nil, err
		}
		aggRes, err := agg.Parallel(context.Background(), keys, vals, agg.StrategyRadix, s2, m, 1<<14, nil)
		if err != nil {
			return nil, err
		}

		// Join: parallel radix.
		s3, err := sched.New(m, sched.Options{Workers: w, Stealing: true})
		if err != nil {
			return nil, err
		}
		joinRes, err := join.ParallelRadix(context.Background(), jin, join.RadixOptions{}, s3, m, 1<<14)
		if err != nil {
			return nil, err
		}

		if w == 1 {
			scan1, agg1, join1 = scanMk, aggRes.MakespanCycles, joinRes.MakespanCycles
		}
		t.AddRow(bench.F("%d", w),
			bench.Ratio(scan1/scanMk),
			bench.Ratio(agg1/aggRes.MakespanCycles),
			bench.Ratio(join1/joinRes.MakespanCycles),
			bench.F("%d.00x", w))
	}
	t.AddNote("scan saturates at the per-socket bandwidth wall; compute-heavier operators scale further")
	return []*Table{t}, nil
}

func runE2a(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	nTasks := cfg.scaled(512, 32)
	t := bench.NewTable("E2a: work stealing under skewed task durations ("+m.Name+", 16 workers)",
		"skew", "no-steal makespan Mcyc", "steal makespan Mcyc", "steal benefit")
	for _, skew := range []float64{1, 4, 16, 64} {
		mk := func(stealing bool) (float64, error) {
			s, err := sched.New(m, sched.Options{Workers: 16, Stealing: stealing})
			if err != nil {
				return 0, err
			}
			tasks := make([]sched.Task, nTasks)
			for i := range tasks {
				dur := 1000.0
				if i%16 == 0 {
					dur *= skew
				}
				d := dur
				// Pin everything to socket 0 to model data born on one node.
				tasks[i] = sched.Task{Socket: 0, Run: func(w *sched.Worker) { w.AdvanceCycles(d) }}
			}
			return s.Run(tasks).MakespanCycles, nil
		}
		noSteal, err := mk(false)
		if err != nil {
			return nil, err
		}
		steal, err := mk(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(bench.F("%.0fx", skew),
			bench.F("%.2f", noSteal/1e6), bench.F("%.2f", steal/1e6),
			bench.Ratio(noSteal/steal))
	}
	t.AddNote("all work is born on socket 0; without stealing the other socket's 8 cores idle")
	return []*Table{t}, nil
}

func runE2b(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	rows := cfg.scaled(1<<22, 1<<15)
	t := bench.NewTable("E2b: morsel size sweep, parallel scan ("+m.Name+", 16 workers)",
		"morsel rows", "tasks", "makespan Mcyc", "imbalance")
	const dispatchCycles = 2000 // per-task scheduling overhead
	for _, morsel := range []int{1 << 8, 1 << 11, 1 << 14, 1 << 17, 1 << 20} {
		s, err := sched.New(m, sched.Options{Workers: 16, Stealing: true})
		if err != nil {
			return nil, err
		}
		tasks := sched.Morsels(rows, morsel, "scan", func(start, end int, wk *sched.Worker) {
			wk.AdvanceCycles(dispatchCycles)
			wk.Charge(hw.Work{Tuples: int64(end - start), ComputePerTuple: 2,
				SeqReadBytes: int64(end-start) * 16})
		})
		res := s.Run(tasks)
		t.AddRow(bench.F("%d", morsel), bench.F("%d", res.TasksRun),
			bench.F("%.2f", res.MakespanCycles/1e6), bench.F("%.3f", res.Imbalance()))
	}
	t.AddNote("tiny morsels pay dispatch overhead; huge morsels leave the tail unbalanced")
	return []*Table{t}, nil
}
