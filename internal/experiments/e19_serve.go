package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"hwstar/internal/agg"
	"hwstar/internal/bench"
	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Concurrent query service: shared-scan batching and admission control",
		Claim: "a serving layer that batches concurrent scans into one clock scan amortizes the pass across clients, and a bounded intake queue sheds load instead of collapsing",
		Run:   runE19,
	})
}

// cohortQuery is the serving cohorts' query shape: a 5000-wide range over
// the filter column.
func cohortQuery(lo int64) scan.Query {
	return scan.Query{FilterCol: 0, Lo: lo, Hi: lo + 5000, AggCol: 1}
}

// scanCohort registers cols on a fresh server whose MaxBatch is maxBatch,
// fires one cohortQuery per element of los at it, all concurrently, and
// returns the mean modeled Mcyc per query, each client's sum in client order,
// and own: the cohort's share of the server's counters. Every batch must be
// full — by the server's own rule, a scratch-table scan holding the cores while
// the cohort queues; EXPERIMENTS.md E19 has the retries and the subtraction.
func scanCohort(m *hw.Machine, cols [][]int64, los []int64, maxBatch int) (meanMcyc float64, sums []int64, own map[string]int64, err error) {
	// The queue takes the cohort plus the scratch scan.
	s, err := serve.New(m, serve.Options{QueueDepth: len(los) + 1, MaxBatch: maxBatch})
	if err != nil {
		return 0, nil, nil, err
	}
	defer s.Close()
	if err := s.Register("cohort", cols); err != nil {
		return 0, nil, nil, err
	}
	ctx := context.Background()
	admitted := s.Metrics().Counter("serve.admitted")
	hold := serve.Request{Op: serve.OpScan, Table: "scratch", Query: scan.Query{Lo: 1, Hi: 1}}
	resps := make([]serve.Response, len(los))
	errsOut := make([]error, len(los)+1)
	for rows := 1 << 19; rows <= 1<<22; rows *= 2 {
		// Random 0/1 filtered on 1: every block straddles and is decoded.
		if err := s.Register("scratch", [][]int64{workload.UniformInts(1999, rows, 2)}); err != nil {
			return 0, nil, nil, err
		}
		before := s.Metrics().Counters()
		if _, err := s.Submit(ctx, hold); err != nil {
			return 0, nil, nil, err
		}
		alone := s.Metrics().Counters()
		closedLoop(len(los)+1, 1, func(c, _ int) error {
			if c == len(los) {
				_, errsOut[c] = s.Submit(ctx, hold)
				return errsOut[c]
			}
			for admitted.Value() == alone["serve.admitted"] {
				runtime.Gosched() // queue behind the scratch scan
			}
			resps[c], errsOut[c] = s.Submit(ctx, serve.Request{Op: serve.OpScan, Table: "cohort", Query: cohortQuery(los[c])})
			return errsOut[c]
		})
		if err := errors.Join(errsOut...); err != nil {
			return 0, nil, nil, err
		}
		if slices.ContainsFunc(resps, func(r serve.Response) bool { return r.BatchSize != min(maxBatch, len(los)) }) {
			continue
		}
		own = s.Metrics().Counters()
		for k := range own {
			own[k] -= 2*alone[k] - before[k]
		}
		sums = make([]int64, len(los))
		for c, r := range resps {
			sums[c] = r.Sum
			meanMcyc += r.SimCycles
		}
		return meanMcyc / float64(len(los)) / 1e6, sums, own, nil
	}
	return 0, nil, nil, fmt.Errorf("cohort of %d never ran in full batches: the host admits it slower than a 4 Mi-row scan runs", len(los))
}

func runE19(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	rows := cfg.scaled(1<<19, 1<<13)
	cols := [][]int64{
		workload.UniformInts(1901, rows, 100000),
		workload.UniformInts(1902, rows, 1000),
	}

	// Part 1: N concurrent scan clients against two server configurations —
	// MaxBatch=1 degenerates to per-query execution, MaxBatch=N lets the whole
	// cohort share one clock scan. Each client reports its amortized modeled
	// cycles; the comparison is the serving-layer version of E3's sharing.
	t1 := bench.NewTable("E19: batched vs per-query serving over "+bench.F("%d", rows)+" rows ("+m.Name+")",
		"clients", "per-query Mcyc/q", "batched Mcyc/q", "speedup", "batches", "batch size", "admitted", "rejected")

	for _, clients := range []int{8, 32, 128} {
		los := workload.UniformInts(1903, clients, 90000)
		perQuery, _, _, err := scanCohort(m, cols, los, 1)
		if err != nil {
			return nil, err
		}
		batched, _, own, err := scanCohort(m, cols, los, clients)
		if err != nil {
			return nil, err
		}
		t1.AddRow(bench.F("%d", clients),
			bench.F("%.2f", perQuery),
			bench.F("%.2f", batched),
			bench.Ratio(perQuery/batched),
			bench.F("%d", own["serve.vec_passes"]),
			bench.F("%d", clients),
			bench.F("%d", own["serve.admitted"]),
			bench.F("%d", own["serve.rejected"]))
	}
	t1.AddNote("per-query serving re-reads the columns per client; the batched server answers the cohort in one pass")

	// Part 2: admission control. Aggregations serialize on the worker
	// budget, so a burst far beyond the intake queue must be shed with
	// ErrOverloaded while every admitted request still completes.
	t2 := bench.NewTable("E19: admission control under a "+bench.F("%d", 64)+"-client burst",
		"queue depth", "admitted", "rejected", "completed")
	keys := workload.ZipfInts(1904, cfg.scaled(1<<20, 1<<12), 4096, 1.1)
	vals := workload.UniformInts(1905, len(keys), 100)
	for _, depth := range []int{4, 16} {
		s, err := serve.New(m, serve.Options{QueueDepth: depth, OpWorkers: m.TotalCores()})
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Submit(context.Background(), serve.Request{
					Op: serve.OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyRadix,
				})
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			return nil, err
		}
		ctrs := s.Metrics().Counters()
		t2.AddRow(bench.F("%d", depth),
			bench.F("%d", ctrs["serve.admitted"]),
			bench.F("%d", ctrs["serve.rejected"]),
			bench.F("%d", ctrs["serve.completed"]))
	}
	t2.AddNote("rejected = admitted-queue overflow surfaced to clients as ErrOverloaded, not unbounded buffering")
	return []*Table{t1, t2}, nil
}
