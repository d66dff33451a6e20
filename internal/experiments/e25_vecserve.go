package experiments

import (
	"context"
	"fmt"

	"hwstar/internal/bench"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E25",
		Title: "Vectorized compressed serving: the server's scan path against the row clock scan, and its tail",
		Claim: "executing shared scan batches directly on FOR/RLE-compressed columns — zone-map pruning, precomputed block sums, decode-on-demand — answers a scan-heavy serving cohort in at least 1.5x fewer modeled cycles than the row-at-a-time clock scan (scan.ParallelShared) with identical results, and holds tail latency under the E20 fault mix",
		Run:   runE25,
	})
}

// e25CohortPoint compares one cohort size between the row clock scan and
// the server.
// Sums are verified equal query-by-query before the point is accepted.
type e25CohortPoint struct {
	Clients                               int
	RowMcycPerQ, VecMcycPerQ, Speedup     float64
	BlocksPruned, FastSums, BlocksScanned int64
}

// e25ChaosBench compares the two passes under the E20 serve fault mix — same
// seeds, same scheduler resilience, only the scan differs.
type e25ChaosBench struct {
	RowCompleted, VecCompleted       int
	RowP99Mcyc, VecP99Mcyc, P99Ratio float64
}

// e25Cols builds the serving relation: an append-ordered filter column
// (monotone trend plus bounded noise, the shape of an event-time key) and a
// uniform measure column. Ordered data is what makes zone maps and block
// sums live: most blocks fall wholly outside or wholly inside a range
// predicate, exactly as in a time-partitioned serving table.
func e25Cols(rows int) [][]int64 {
	noise := workload.UniformInts(2501, rows, 256)
	filter := make([]int64, rows)
	for i := range filter {
		filter[i] = int64(i)*100000/int64(rows) + noise[i] - 128
	}
	return [][]int64{filter, workload.UniformInts(2502, rows, 1000)}
}

// runE25Cohorts measures the row clock scan against the server on identical
// cohorts, verifying result equality before accepting any speedup. The
// baseline is what a server running the row pass would charge: one
// scan.ParallelShared over all of m's cores, its makespan split across the
// cohort.
func runE25Cohorts(m *hw.Machine, cols [][]int64, cohortSizes []int) ([]e25CohortPoint, float64, error) {
	rel, err := scan.NewRelation(cols)
	if err != nil {
		return nil, 0, err
	}
	var points []e25CohortPoint
	ratio := 0.0
	for _, clients := range cohortSizes {
		los := workload.UniformInts(2503, clients, 90000)
		qs := make([]scan.Query, clients)
		for i, lo := range los {
			qs[i] = cohortQuery(lo)
		}
		sch, err := sched.New(m, sched.Options{Workers: m.TotalCores(), Stealing: true})
		if err != nil {
			return nil, 0, err
		}
		rowSums, rowRes, err := scan.ParallelShared(context.Background(), rel, qs, scan.SharedOptions{UseQueryIndex: true}, sch, 0)
		if err != nil {
			return nil, 0, err
		}
		rowM := rowRes.MakespanCycles / float64(clients) / 1e6

		vecM, vecSums, own, err := scanCohort(m, cols, los, clients)
		if err != nil {
			return nil, 0, err
		}
		h := serve.HealthFromCounters(own)
		for i := range rowSums {
			if rowSums[i] != vecSums[i] {
				return nil, 0, fmt.Errorf("e25: cohort %d query %d: server sum %d != row sum %d",
					clients, i, vecSums[i], rowSums[i])
			}
		}
		p := e25CohortPoint{
			Clients:       clients,
			RowMcycPerQ:   rowM,
			VecMcycPerQ:   vecM,
			BlocksPruned:  h.VecBlocksPruned,
			FastSums:      h.VecFastSums,
			BlocksScanned: h.VecBlocksScanned,
		}
		if vecM > 0 {
			p.Speedup = rowM / vecM
		}
		points = append(points, p)
		ratio = p.Speedup
	}
	return points, ratio, nil
}

// runE25Chaos reruns E20's serving-level fault mix on both passes: identical
// seeds, the same scheduler resilience (panic isolation, straggler
// re-dispatch, in-place morsel re-runs), sequential queries so the fault
// draws line up. Latency is cumulative Mcyc across a query's attempts — a
// failed pass still burned its cycles. Each query gets up to 10 attempts:
// the server's client resubmits, the row baseline loops.
func runE25Chaos(m *hw.Machine, cols [][]int64, queriesN int) (e25ChaosBench, error) {
	los := workload.UniformInts(2505, queriesN, 90000)
	faults := func() *fault.Injector {
		return fault.New(fault.Config{
			Seed:          2550,
			PanicProb:     0.005,
			TransientProb: 0.005,
			StragglerProb: 0.10,
			StragglerSkew: 8,
		})
	}
	// run answers every query with attempt, at most limit tries each, and
	// returns how many completed and the p99 of their cumulative Mcyc.
	run := func(limit int, attempt func(scan.Query) (float64, error)) (int, float64) {
		var cycles []float64
		for _, lo := range los {
			var spent float64
			for try := 0; try < limit; try++ {
				mcyc, err := attempt(cohortQuery(lo))
				spent += mcyc
				if err == nil {
					cycles = append(cycles, spent)
					break
				}
			}
		}
		return len(cycles), quantileOf(cycles, 0.99)
	}
	var b e25ChaosBench

	rel, err := scan.NewRelation(cols)
	if err != nil {
		return b, err
	}
	inj := faults()
	b.RowCompleted, b.RowP99Mcyc = run(10, func(q scan.Query) (float64, error) {
		sch, err := sched.New(m, sched.Options{Workers: 8, Stealing: true, Inject: inj,
			IsolatePanics: true, StragglerThreshold: 3, BlockSize: 8})
		if err != nil {
			return 0, err
		}
		_, res, err := scan.ParallelShared(context.Background(), rel, []scan.Query{q},
			scan.SharedOptions{UseQueryIndex: true}, sch, rel.NumRows()/64)
		return res.MakespanCycles / 1e6, err
	})

	s, err := serve.New(m, serve.Options{
		QueueDepth:     4,
		MaxBatch:       1,
		Workers:        8,
		SchedBlockSize: 8,
		Faults:         faults(),
	})
	if err != nil {
		return b, err
	}
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		return b, err
	}
	b.VecCompleted, b.VecP99Mcyc = run(10, func(q scan.Query) (float64, error) {
		resp, err := s.Submit(context.Background(), serve.Request{Op: serve.OpScan, Table: "events", Query: q})
		return resp.SimCycles / 1e6, err
	})
	if b.RowP99Mcyc > 0 {
		b.P99Ratio = b.VecP99Mcyc / b.RowP99Mcyc
	}
	return b, nil
}

// runE25 executes the vectorized-serving experiment. It fails loudly if the
// server's sums diverge from the row clock scan's, if the headline speedup
// (the largest cohort's row/vec cycle ratio) misses 1.5x, or if chaos p99
// regresses.
func runE25(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	rows := cfg.scaled(1<<19, 1<<14)
	cols := e25Cols(rows)
	cohortSizes := []int{8, 32, 128}
	chaosQueries := cfg.scaled(200, 40)

	points, speedup, err := runE25Cohorts(m, cols, cohortSizes)
	if err != nil {
		return nil, err
	}
	// The headline gate is a full-size claim: on a shrunk smoke table the
	// fixed per-query zone sweep has too few blocks to amortize over and
	// the row scan's query index legitimately wins the largest cohort.
	// Sum equivalence and the chaos gate below still hold at every scale.
	if speedup < 1.5 && rows >= 1<<19 {
		return nil, fmt.Errorf("e25: headline speedup %.2fx misses the 1.5x target", speedup)
	}
	// The chaos phase runs on the full-size table at every scale, with the
	// query count scaled: a shrunk table gives the pass a handful of morsels,
	// one block-claiming worker takes them all, and no straggler can be
	// re-dispatched, so the gate would measure the table's size, not the
	// scan.
	chaos, err := runE25Chaos(m, e25Cols(1<<19), chaosQueries)
	if err != nil {
		return nil, err
	}
	// 5% tolerance on the tail gate. At full size the server sits near 0.1x.
	if chaos.RowP99Mcyc > 0 && chaos.P99Ratio > 1.05 {
		return nil, fmt.Errorf("e25: server chaos p99 regressed: %.2fx the row scan", chaos.P99Ratio)
	}

	t1 := bench.NewTable("E25: vectorized compressed pass vs row-at-a-time clock scan over "+bench.F("%d", rows)+" ordered rows",
		"clients", "row Mcyc/q", "vec Mcyc/q", "speedup", "blocks pruned", "fast sums", "blocks scanned")
	for _, p := range points {
		t1.AddRow(bench.F("%d", p.Clients),
			bench.F("%.3f", p.RowMcycPerQ),
			bench.F("%.3f", p.VecMcycPerQ),
			bench.Ratio(p.Speedup),
			bench.F("%d", p.BlocksPruned),
			bench.F("%d", p.FastSums),
			bench.F("%d", p.BlocksScanned))
	}
	t1.AddNote("identical sums, verified query-by-query; the row column is scan.ParallelShared on the same cores, the vec column the server, whose pass touches compressed bytes and skips or fast-sums zone-resolved blocks")

	t2 := bench.NewTable("E25: E20 fault mix on both passes ("+bench.F("%d", chaosQueries)+" sequential scans, 0.5% panic, 0.5% transient, 10% straggler @8x)",
		"pass", "completed", "p99 Mcyc", "p99 vs row")
	t2.AddRow("row", bench.F("%d", chaos.RowCompleted), bench.F("%.2f", chaos.RowP99Mcyc), "1.00x")
	t2.AddRow("vectorized", bench.F("%d", chaos.VecCompleted), bench.F("%.2f", chaos.VecP99Mcyc), bench.Ratio(chaos.P99Ratio))
	t2.AddNote("same fault seeds, same scheduler resilience, up to 10 attempts a query; only the scan differs")

	return []*Table{t1, t2}, nil
}
