package experiments

import (
	"context"
	"sort"
	"sync"
	"time"

	"hwstar/internal/bench"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
	"hwstar/internal/trace"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Observability: tail-latency decomposition from query-lifecycle traces",
		Claim: "per-request span trees decompose the p99 latency of a chaos-loaded server into queue wait, batch assembly, execution, and retry backoff — locating the tail in the serving layer, not the operator",
		Run:   runE21,
	})
}

// e21Breakdown is one traced request's lifecycle, in wall milliseconds.
type e21Breakdown struct {
	total, queue, batch, execute, retry float64
	execMcyc                            float64
	retried                             bool
}

func (b e21Breakdown) other() float64 {
	o := b.total - b.queue - b.batch - b.execute - b.retry
	if o < 0 {
		o = 0
	}
	return o
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// e21Run fires concurrent scan clients at a fully traced, chaos-loaded
// resilient server and returns every request's lifecycle breakdown. Wall
// times are real (this experiment measures the serving layer itself), so
// absolute numbers vary by host; the decomposition structure is the result.
func e21Run(cfg Config) ([]e21Breakdown, serve.Health, error) {
	m := hw.Server2S()
	requests := cfg.scaled(400, 60)
	const clients = 8
	// 64 morsels per pass at every scale: faults are drawn per morsel task,
	// so a shrunk table would draw too few to reach the retry stage.
	const rows = 1 << 19
	cols := [][]int64{
		workload.UniformInts(2101, rows, 100000),
		workload.UniformInts(2102, rows, 1000),
	}

	tr := trace.New(trace.Config{Capacity: requests, SampleEvery: 1})
	s, err := serve.New(m, serve.Options{
		QueueDepth:     requests,
		MaxBatch:       16,
		Workers:        8,
		SchedBlockSize: 8,
		Faults: fault.New(fault.Config{
			Seed:          9950,
			TransientProb: 0.02,
			StragglerProb: 0.05,
			StragglerSkew: 8,
		}),
		MaxRetries:         4,
		RetryBackoff:       100 * time.Microsecond,
		JitterSeed:         21,
		IsolatePanics:      true,
		StragglerThreshold: 3,
		Trace:              tr,
	})
	if err != nil {
		return nil, serve.Health{}, err
	}
	los := workload.UniformInts(2103, requests, 90000)
	if err := s.Register("facts", cols); err != nil {
		s.Close()
		return nil, serve.Health{}, err
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < requests; i += clients {
				_, _ = s.Submit(context.Background(), serve.Request{
					Op:    serve.OpScan,
					Table: "facts",
					Query: scan.Query{FilterCol: 0, Lo: los[i], Hi: los[i] + 5000, AggCol: 1},
				})
			}
		}()
	}
	wg.Wait()
	h := s.Health()
	if err := s.Close(); err != nil {
		return nil, h, err
	}

	var out []e21Breakdown
	for _, td := range tr.Snapshot() {
		b := e21Breakdown{
			total:    ms(td.Root().Wall),
			queue:    ms(td.SumWall("queue")),
			batch:    ms(td.SumWall("batch-assembly")),
			execute:  ms(td.SumWall("execute")),
			retry:    ms(td.SumWall("retry-backoff")),
			execMcyc: td.SumCycles("execute") / 1e6,
			retried:  td.SumWall("retry-backoff") > 0,
		}
		out = append(out, b)
	}
	return out, h, nil
}

func runE21(cfg Config) ([]*Table, error) {
	bds, h, err := e21Run(cfg)
	if err != nil {
		return nil, err
	}
	if len(bds) == 0 {
		return nil, nil
	}
	sort.Slice(bds, func(i, j int) bool { return bds[i].total < bds[j].total })
	at := func(q float64) e21Breakdown { return bds[int(q*float64(len(bds)-1))] }

	t1 := bench.NewTable("E21: request latency decomposed by lifecycle stage, "+bench.F("%d", len(bds))+" traced scans under chaos (2% transient, 5% straggler @8x; 4 retries)",
		"quantile", "total ms", "queue ms", "batch-assembly ms", "execute ms", "retry-backoff ms", "other ms", "exec Mcyc")
	for _, row := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"max", 1.0}} {
		b := at(row.q)
		t1.AddRow(row.name,
			bench.F("%.3f", b.total),
			bench.F("%.3f", b.queue),
			bench.F("%.3f", b.batch),
			bench.F("%.3f", b.execute),
			bench.F("%.3f", b.retry),
			bench.F("%.3f", b.other()),
			bench.F("%.2f", b.execMcyc))
	}
	t1.AddNote("each row is ONE traced request at that latency quantile, its wall time split by span: where the p99 differs from the p50 is where the tail lives")

	// Aggregate view: total milliseconds spent per stage across all traced
	// requests, plus how many requests retried at all.
	var sum e21Breakdown
	retried := 0
	for _, b := range bds {
		sum.total += b.total
		sum.queue += b.queue
		sum.batch += b.batch
		sum.execute += b.execute
		sum.retry += b.retry
		if b.retried {
			retried++
		}
	}
	pct := func(v float64) string {
		if sum.total == 0 {
			return "0%"
		}
		return bench.F("%.1f%%", 100*v/sum.total)
	}
	t2 := bench.NewTable("E21: aggregate time by stage ("+bench.F("%d", retried)+"/"+bench.F("%d", len(bds))+" requests retried; server retries "+bench.F("%d", h.Retries)+", re-dispatched "+bench.F("%d", h.Redispatched)+")",
		"stage", "total ms", "share of wall")
	t2.AddRow("queue", bench.F("%.2f", sum.queue), pct(sum.queue))
	t2.AddRow("batch-assembly", bench.F("%.2f", sum.batch), pct(sum.batch))
	t2.AddRow("execute", bench.F("%.2f", sum.execute), pct(sum.execute))
	t2.AddRow("retry-backoff", bench.F("%.2f", sum.retry), pct(sum.retry))
	t2.AddRow("other", bench.F("%.2f", sum.total-sum.queue-sum.batch-sum.execute-sum.retry), pct(sum.total-sum.queue-sum.batch-sum.execute-sum.retry))
	t2.AddNote("wall milliseconds are host-real (the serving layer is being measured, not simulated); exec Mcyc ties each request back to the machine model")
	return []*Table{t1, t2}, nil
}
