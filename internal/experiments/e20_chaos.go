package experiments

import (
	"context"

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
		ID:    "E20",
		Title: "Chaos: resilient execution under injected panics, stragglers, and transients",
		Claim: "panic isolation, straggler re-dispatch, and morsel retry keep tail latency bounded and complete every admitted query under a fault mix that fails or 8x-inflates a naive engine",
		Run:   runE20,
	})
}

// e20TrialStats aggregates one engine configuration over many fault trials.
type e20TrialStats struct {
	completed int
	attempts  int
	makespans []float64 // cumulative Mcyc to success, completed trials only
	faults    sched.FaultStats
}

// e20SchedTrials runs `trials` independent chaos trials of the same morsel
// set. A trial re-runs the query until it succeeds (capped at maxAttempts),
// and its latency is the CUMULATIVE makespan across attempts: the retry-free
// engine has no morsel recovery, so every injected panic burns the cycles
// already spent and forces a whole-query re-execution, while the resilient
// engine absorbs the same faults inside a single run. Attempt k of trial t
// uses injector seed base+100*t+k for both engines, so they face identical
// fault draws.
func e20SchedTrials(m *hw.Machine, trials, nTasks int, cost float64, resilient bool) (e20TrialStats, error) {
	const maxAttempts = 50
	var out e20TrialStats
	for trial := 0; trial < trials; trial++ {
		var spent float64
		done := false
		for attempt := 0; attempt < maxAttempts && !done; attempt++ {
			inj := fault.New(fault.Config{
				Seed:          9000 + 100*int64(trial) + int64(attempt),
				PanicProb:     0.01,
				StragglerProb: 0.10,
				StragglerSkew: 8,
			})
			opts := sched.Options{
				Workers:   8,
				Stealing:  true,
				Inject:    inj,
				BlockSize: 8,
			}
			if resilient {
				opts.IsolatePanics = true
				opts.StragglerThreshold = 3
			}
			s, err := sched.New(m, opts)
			if err != nil {
				return out, err
			}
			tasks := make([]sched.Task, nTasks)
			for i := range tasks {
				tasks[i] = sched.Task{
					Name: "chaos-morsel",
					Site: "chaos-morsel",
					Run:  func(w *sched.Worker) { w.AdvanceCycles(cost) },
				}
			}
			res, runErr := s.RunContext(context.Background(), tasks)
			out.attempts++
			out.faults.Add(res.FaultStats)
			spent += res.MakespanCycles / 1e6 // failed attempts still burned their cycles
			done = runErr == nil
		}
		if done {
			out.completed++
			out.makespans = append(out.makespans, spent)
		}
	}
	return out, nil
}

func runE20(cfg Config) ([]*Table, error) {
	m := hw.Server2S()

	// Part 1: scheduler-level chaos. The same morsel set, the same per-trial
	// fault seeds; the only difference is whether the scheduler isolates
	// panics and retires stragglers. Fully deterministic: the virtual-time
	// loop draws faults in one thread, so a seed fixes the whole trial.
	trials := cfg.scaled(60, 20)
	nTasks := 256
	const cost = 1e5 // cycles per morsel => 3.2 Mcyc ideal makespan on 8 workers
	t1 := bench.NewTable("E20: naive vs resilient scheduling, "+bench.F("%d", trials)+" trials of "+bench.F("%d", nTasks)+" morsels (1% panic, 10% straggler @8x)",
		"engine", "completed", "attempts", "p50 Mcyc", "p99 Mcyc", "panics", "retries", "re-dispatched", "stragglers retired")
	naive, err := e20SchedTrials(m, trials, nTasks, cost, false)
	if err != nil {
		return nil, err
	}
	resil, err := e20SchedTrials(m, trials, nTasks, cost, true)
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		s    e20TrialStats
	}{{"naive", naive}, {"resilient", resil}} {
		t1.AddRow(row.name,
			bench.F("%d/%d", row.s.completed, trials),
			bench.F("%d", row.s.attempts),
			bench.F("%.2f", quantileOf(row.s.makespans, 0.50)),
			bench.F("%.2f", quantileOf(row.s.makespans, 0.99)),
			bench.F("%d", row.s.faults.Panics),
			bench.F("%d", row.s.faults.TaskRetries),
			bench.F("%d", row.s.faults.Redispatched),
			bench.F("%d", row.s.faults.StragglersRetired))
	}
	t1.AddNote("latency is cumulative Mcyc to success: the naive engine re-runs the whole query after every panic, paying for the cycles it burned; the resilient engine absorbs the same faults in one run")

	// Part 2: serving-level chaos. A faulted server runs the resilient
	// scheduler of part 1 — panic isolation, straggler re-dispatch, and an
	// in-place re-run of a morsel hit by a transient — so there is no naive
	// server to compare: the naive/resilient contrast is part 1's, at the
	// scheduler, where the policy lives. The client resubmits a failed query
	// (up to 10 times), and a query's latency is the cumulative Mcyc over its
	// submissions — failed passes report the cycles they burned, so the cost
	// of failure is charged to the client. Sequential submissions with
	// MaxBatch=1 keep the injector's draw order deterministic.
	rows := cfg.scaled(1<<18, 1<<14)
	cols := [][]int64{
		workload.UniformInts(2001, rows, 100000),
		workload.UniformInts(2002, rows, 1000),
	}
	queriesN := cfg.scaled(200, 40)
	los := workload.UniformInts(2003, queriesN, 90000)

	type serveStats struct {
		completed, gaveUp, submissions int
		p99                            float64
		h                              serve.Health
	}
	runServer := func() (serveStats, error) {
		var st serveStats
		s, err := serve.New(m, serve.Options{
			QueueDepth:     4,
			MaxBatch:       1,
			Workers:        8,
			SchedBlockSize: 8,
			Faults: fault.New(fault.Config{
				Seed:          9900,
				PanicProb:     0.005,
				TransientProb: 0.005,
				StragglerProb: 0.10,
				StragglerSkew: 8,
			}),
		})
		if err != nil {
			return st, err
		}
		defer s.Close()
		if err := s.Register("facts", cols); err != nil {
			return st, err
		}
		var cycles []float64
		for i := 0; i < queriesN; i++ {
			var spent float64
			done := false
			for attempt := 0; attempt < 10 && !done; attempt++ {
				resp, err := s.Submit(context.Background(), serve.Request{
					Op:    serve.OpScan,
					Table: "facts",
					Query: scan.Query{FilterCol: 0, Lo: los[i], Hi: los[i] + 5000, AggCol: 1},
				})
				st.submissions++
				spent += resp.SimCycles / 1e6 // failed passes report burned cycles
				done = err == nil
			}
			if done {
				st.completed++
				cycles = append(cycles, spent)
			} else {
				st.gaveUp++
			}
		}
		st.p99 = quantileOf(cycles, 0.99)
		st.h = s.Health()
		return st, nil
	}

	t2 := bench.NewTable("E20: resilient serving, "+bench.F("%d", queriesN)+" sequential scans (0.5% panic, 0.5% transient, 10% straggler @8x)",
		"server", "completed", "gave up", "submissions", "p99 Mcyc", "retries", "panics recovered", "stragglers retired", "faults injected")
	st, err := runServer()
	if err != nil {
		return nil, err
	}
	var injected int64
	for _, n := range st.h.Faults {
		injected += n
	}
	t2.AddRow("resilient",
		bench.F("%d", st.completed),
		bench.F("%d", st.gaveUp),
		bench.F("%d", st.submissions),
		bench.F("%.2f", st.p99),
		bench.F("%d", st.h.Retries),
		bench.F("%d", st.h.PanicsRecovered),
		bench.F("%d", st.h.StragglersRetired),
		bench.F("%d", injected))
	t2.AddNote("latency is cumulative Mcyc across a query's submissions; retries are the scheduler's morsel re-runs, and submissions beyond one per query are the client's resubmits of a pass the scheduler could not save")
	return []*Table{t1, t2}, nil
}
