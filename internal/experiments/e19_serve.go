package experiments

import (
	"context"
	"sync"
	"time"

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

// scanCohort fires one cohortQuery per element of los at table,
// all concurrently, and returns the mean modeled Mcyc per query plus each
// client's sum, in client order. Any failed scan fails the cohort.
func scanCohort(s *serve.Server, table string, los []int64) (meanMcyc float64, sums []int64, err error) {
	sums = make([]int64, len(los))
	cycles := make([]float64, len(los))
	errsOut := make([]error, len(los))
	closedLoop(len(los), 1, func(c, _ int) error {
		resp, err := s.Submit(context.Background(), serve.Request{Op: serve.OpScan, Table: table, Query: cohortQuery(los[c])})
		sums[c], cycles[c], errsOut[c] = resp.Sum, resp.SimCycles, err
		return err
	})
	var total float64
	for c := range los {
		if errsOut[c] != nil {
			return 0, nil, errsOut[c]
		}
		total += cycles[c]
	}
	return total / float64(len(los)) / 1e6, sums, nil
}

func runE19(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	rows := cfg.scaled(1<<19, 1<<13)
	cols := [][]int64{
		workload.UniformInts(1901, rows, 100000),
		workload.UniformInts(1902, rows, 1000),
	}

	// Part 1: N concurrent scan clients against two server configurations —
	// MaxBatch=1 degenerates to per-query execution, MaxBatch=N lets the
	// window collect the whole cohort into one shared clock scan. Each
	// client reports its amortized modeled cycles; the comparison is the
	// serving-layer version of E3's sharing argument.
	t1 := bench.NewTable("E19: batched vs per-query serving over "+bench.F("%d", rows)+" rows ("+m.Name+")",
		"clients", "per-query Mcyc/q", "batched Mcyc/q", "speedup", "batches", "batch p50", "admitted", "rejected")

	runCohort := func(clients, maxBatch int) (meanMcyc float64, batches int, p50 float64, admitted, rejected int64, err error) {
		s, err := serve.New(m, serve.Options{
			QueueDepth:  clients,
			MaxBatch:    maxBatch,
			BatchWindow: 10 * time.Second, // flush on MaxBatch, deterministically
		})
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		defer s.Close()
		if err := s.Register("facts", cols); err != nil {
			return 0, 0, 0, 0, 0, err
		}
		meanMcyc, _, err = scanCohort(s, "facts", workload.UniformInts(1903, clients, 90000))
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		bs := s.Metrics().Histogram("serve.batch_size")
		ctrs := s.Metrics().Counters()
		return meanMcyc, bs.Count(), bs.Quantile(0.5),
			ctrs["serve.admitted"], ctrs["serve.rejected"], nil
	}

	for _, clients := range []int{8, 32, 128} {
		perQ, _, _, _, _, err := runCohort(clients, 1)
		if err != nil {
			return nil, err
		}
		batched, batches, p50, admitted, rejected, err := runCohort(clients, clients)
		if err != nil {
			return nil, err
		}
		t1.AddRow(bench.F("%d", clients),
			bench.F("%.2f", perQ),
			bench.F("%.2f", batched),
			bench.Ratio(perQ/batched),
			bench.F("%d", batches),
			bench.F("%.0f", p50),
			bench.F("%d", admitted),
			bench.F("%d", rejected))
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
