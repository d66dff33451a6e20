package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/join"
	"hwstar/internal/mem"
	"hwstar/internal/workload"
)

// groupReq builds a group-sum request whose table footprint is controlled by
// the group cardinality (34 simulated bytes per group).
func groupReq(rows int, groups int64) (Request, map[int64]int64) {
	keys := workload.UniformInts(91, rows, groups)
	vals := workload.UniformInts(92, rows, 100)
	return Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyGlobal},
		agg.Serial(keys, vals)
}

// TestMemoryAdmissionShed pins that admission holds no memory: group-sums
// queued behind one that holds the cores are not shed for budget they have
// not charged, and each returns its exact groups once the first completes.
// Four of them outnumber what an up-front budget/4 reservation per request
// could admit beside the held one.
func TestMemoryAdmissionShed(t *testing.T) {
	s := newServer(t, Options{
		Workers: 2, OpWorkers: 2, QueueDepth: 8,
		Memory: mem.Config{BudgetBytes: 1000},
	})
	hold := make(chan struct{})
	s.testHold = hold

	req, want := groupReq(64, 8)
	type result struct {
		resp Response
		err  error
	}
	results := make(chan result, 5)
	submit := func() {
		resp, err := s.Submit(context.Background(), req)
		results <- result{resp, err}
	}
	go submit()
	waitFor(t, func() bool { return s.coresFree.Value() == 0 }, "first group-sum never took the cores")
	for i := 0; i < 4; i++ {
		go submit()
	}
	admitted := s.reg.Counter("serve.admitted")
	for admitted.Value() != 5 {
		select {
		case r := <-results:
			t.Fatalf("group-sum behind the held one answered before it ran: %v", r.err)
		case <-time.After(time.Millisecond):
		}
	}
	close(hold)
	for i := 0; i < 5; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("group-sum %d: %v", i, r.err)
		}
		for k, w := range want {
			if r.resp.Groups[k] != w {
				t.Fatalf("group %d = %d, want %d", k, r.resp.Groups[k], w)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.MemShed != 0 || h.Completed != 5 {
		t.Fatalf("shed accounting: %+v", h)
	}
	if h.Memory.InUseBytes != 0 || h.Memory.Reservations != 0 {
		t.Fatalf("budget leaked: %+v", h.Memory)
	}
}

// TestUnspillableGroupSumCountsAsMemShed gives a group-sum a budget that no
// spill fan-out of its table fits (mem.SpillFanout returns 0): the request
// fails with ErrMemoryPressure, and Health counts it as MemShed, not Failed.
func TestUnspillableGroupSumCountsAsMemShed(t *testing.T) {
	const budget = 64
	s := newServer(t, Options{
		Workers: 2, OpWorkers: 2, QueueDepth: 8,
		Memory: mem.Config{BudgetBytes: budget},
	})
	req, want := groupReq(8192, 4096)
	if k := mem.SpillFanout(int64(len(want))*34, budget, 2); k != 0 {
		t.Fatalf("SpillFanout = %d, want 0: the table must not fit even spilled", k)
	}
	if _, err := s.Submit(context.Background(), req); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("unspillable group-sum err = %v, want ErrMemoryPressure", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.MemShed != 1 || h.Failed != 0 {
		t.Fatalf("MemShed = %d, Failed = %d; want 1, 0", h.MemShed, h.Failed)
	}
	if h.Memory.InUseBytes != 0 || h.Memory.Reservations != 0 {
		t.Fatalf("budget leaked: %+v", h.Memory)
	}
}

// TestAggSpillCompletesWithinBudget gives a group-sum a budget far below its
// table footprint: it must degrade to the spill plan, return the exact
// answer, and never let the governor's peak exceed the budget.
func TestAggSpillCompletesWithinBudget(t *testing.T) {
	const budget = 16 << 10
	s := newServer(t, Options{
		Workers: 8, OpWorkers: 4, QueueDepth: 8,
		Memory: mem.Config{BudgetBytes: budget},
	})
	req, want := groupReq(8192, 2048) // table ≈ 2048 groups × 34 B ≈ 68 KiB
	resp, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("governed group-sum failed: %v", err)
	}
	if !resp.Spilled || resp.SpillBytes == 0 {
		t.Fatalf("expected a spill, got Spilled=%v SpillBytes=%d", resp.Spilled, resp.SpillBytes)
	}
	if len(resp.Groups) != len(want) {
		t.Fatalf("groups = %d, want %d", len(resp.Groups), len(want))
	}
	for k, w := range want {
		if resp.Groups[k] != w {
			t.Fatalf("group %d = %d, want %d", k, resp.Groups[k], w)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Spills == 0 || h.SpillBytes == 0 {
		t.Fatalf("spill counters empty: %+v", h)
	}
	if h.Memory.PeakBytes > budget {
		t.Fatalf("peak %d exceeded budget %d", h.Memory.PeakBytes, budget)
	}
}

// TestJoinSpillCompletesWithinBudget is the join-side spill check: the NPO
// build table outgrows the budget, the grace-hash path runs, and the result
// matches the serial reference.
func TestJoinSpillCompletesWithinBudget(t *testing.T) {
	const budget = 32 << 10
	s := newServer(t, Options{
		Workers: 8, OpWorkers: 4, QueueDepth: 8,
		Memory: mem.Config{BudgetBytes: budget},
	})
	in := join.Input{
		BuildKeys: workload.UniformInts(93, 4096, 1<<30),
		BuildVals: workload.UniformInts(94, 4096, 100),
		ProbeKeys: workload.UniformInts(93, 8192, 1<<30), // same seed prefix: guaranteed matches
		ProbeVals: workload.UniformInts(95, 8192, 100),
	}
	ref, err := join.NPO(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(context.Background(), Request{Op: OpJoin, Join: in, Algorithm: join.AlgNPO})
	if err != nil {
		t.Fatalf("governed join failed: %v", err)
	}
	if !resp.Spilled {
		t.Fatal("join did not spill under a 32 KiB budget")
	}
	if resp.Matches != ref.Matches || resp.Checksum != ref.Checksum {
		t.Fatalf("spilled join diverged: %d/%d, want %d/%d",
			resp.Matches, resp.Checksum, ref.Matches, ref.Checksum)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Memory.PeakBytes > budget {
		t.Fatalf("peak %d exceeded budget %d", h.Memory.PeakBytes, budget)
	}
}

// TestNaiveOOMKill runs the same over-budget aggregation in KillOnOverage
// mode: the naive engine admits it, blows through the budget, and dies with
// the fatal (non-retryable) ErrOOMKilled.
func TestNaiveOOMKill(t *testing.T) {
	s := newServer(t, Options{
		Workers: 4, OpWorkers: 2, QueueDepth: 8,
		Memory: mem.Config{BudgetBytes: 4 << 10, KillOnOverage: true},
	})
	req, _ := groupReq(8192, 2048)
	_, err := s.Submit(context.Background(), req)
	if !errors.Is(err, errs.ErrOOMKilled) {
		t.Fatalf("err = %v, want ErrOOMKilled", err)
	}
	if errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatal("an OOM kill must not be retryable memory pressure")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.OOMKilled != 1 || h.Memory.OOMKills != 1 {
		t.Fatalf("kill accounting: %+v", h)
	}
	if h.Retries != 0 {
		t.Fatalf("fatal kill was retried %d times", h.Retries)
	}
}

// TestMemoryChaos is the race-enabled memory-pressure chaos test: concurrent
// joins, aggregations, and scans against a tight budget with injected
// allocation failures. Every request must either succeed with the correct
// answer (spilled or not) or fail cleanly with a typed error — never panic,
// never hang, never leak budget.
func TestMemoryChaos(t *testing.T) {
	const clients = 48
	cols, expect := testRelation(20000)
	inj := fault.New(fault.Config{Seed: 17, AllocFailProb: 0.05})
	s := newServer(t, Options{
		Workers: 8, OpWorkers: 4, QueueDepth: clients, MaxBatch: 4,
		Faults: inj,
		Memory: mem.Config{BudgetBytes: 48 << 10}, // each heavy table ≈ 68 KiB: spills guaranteed
	})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	groupRq, wantGroups := groupReq(8192, 2048)
	joinIn := join.Input{
		BuildKeys: workload.UniformInts(96, 2048, 1<<20),
		BuildVals: workload.UniformInts(97, 2048, 100),
		ProbeKeys: workload.UniformInts(96, 4096, 1<<20),
		ProbeVals: workload.UniformInts(98, 4096, 100),
	}
	joinRef, err := join.NPO(joinIn, nil)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		kind string
		lo   int64
		resp Response
		err  error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch c % 3 {
			case 0:
				lo := int64(c * 100)
				resp, err := s.Submit(context.Background(), Request{
					Op: OpScan, Table: "events", Query: scanQuery(lo, lo+3000),
				})
				results[c] = result{kind: "scan", lo: lo, resp: resp, err: err}
			case 1:
				resp, err := s.Submit(context.Background(), groupRq)
				results[c] = result{kind: "agg", resp: resp, err: err}
			default:
				resp, err := s.Submit(context.Background(), Request{Op: OpJoin, Join: joinIn, Algorithm: join.AlgNPO})
				results[c] = result{kind: "join", resp: resp, err: err}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	completed := 0
	for c, r := range results {
		if r.err != nil {
			if !errors.Is(r.err, errs.ErrMemoryPressure) && !errors.Is(r.err, errs.ErrOverloaded) {
				t.Fatalf("client %d (%s): untyped failure: %v", c, r.kind, r.err)
			}
			continue
		}
		completed++
		switch r.kind {
		case "scan":
			if want := expect(r.lo, r.lo+3000); r.resp.Sum != want {
				t.Fatalf("client %d: scan sum %d, want %d", c, r.resp.Sum, want)
			}
		case "agg":
			for k, want := range wantGroups {
				if r.resp.Groups[k] != want {
					t.Fatalf("client %d: group %d = %d, want %d", c, k, r.resp.Groups[k], want)
				}
			}
		case "join":
			if r.resp.Matches != joinRef.Matches || r.resp.Checksum != joinRef.Checksum {
				t.Fatalf("client %d: join diverged under chaos", c)
			}
		}
	}
	if completed == 0 {
		t.Fatal("memory chaos completed nothing")
	}
	h := s.Health()
	if h.Memory.InUseBytes != 0 || h.Memory.Reservations != 0 {
		t.Fatalf("budget leaked after drain: %+v", h.Memory)
	}
	if h.Spills == 0 {
		t.Fatalf("governed chaos never spilled: %+v", h)
	}
	if inj.Counts()[fault.ClassAllocFail] == 0 {
		t.Fatal("alloc-fail class never fired")
	}
}

// TestNoGoroutineLeaksUnderMemoryChaos drives governed, fault-injected load
// through several server lifetimes and checks the goroutine count settles.
func TestNoGoroutineLeaksUnderMemoryChaos(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		s := newServer(t, Options{
			Workers: 4, OpWorkers: 2, QueueDepth: 4,
			Faults: fault.New(fault.Config{Seed: int64(round), AllocFailProb: 0.1}),
			Memory: mem.Config{BudgetBytes: 32 << 10},
		})
		req, _ := groupReq(4096, 1024)
		var wg sync.WaitGroup
		for c := 0; c < 16; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Submit(context.Background(), req)
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.gov.Stats(); st.InUseBytes != 0 || st.Reservations != 0 {
			t.Fatalf("round %d leaked budget: %+v", round, st)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
