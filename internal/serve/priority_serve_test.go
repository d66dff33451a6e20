package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/scan"
	"hwstar/internal/workload"
)

func TestPriorityLanes(t *testing.T) {
	cases := []struct {
		p     Priority
		lane  string
		batch bool
	}{
		{"", "interactive", false},
		{PriorityInteractive, "interactive", false},
		{PriorityBatch, "batch", true},
		{"weird", "interactive", false}, // unknown classes degrade to interactive
	}
	for _, c := range cases {
		if got := c.p.Lane(); got != c.lane {
			t.Errorf("Priority(%q).Lane() = %q, want %q", c.p, got, c.lane)
		}
		if got := c.p.batchClass(); got != c.batch {
			t.Errorf("Priority(%q).batchClass() = %v, want %v", c.p, got, c.batch)
		}
	}
}

// TestCoreSemBatchCap pins the token-pool invariants directly: batch-class
// work can never hold more than batchCap tokens, and interactive work can
// start on the reserved tokens without waiting for a batch drain.
func TestCoreSemBatchCap(t *testing.T) {
	c := newCoreSem(8, 2)

	if c.acquire(2, 2, true, false) != 2 {
		t.Fatal("batch acquire within cap refused")
	}
	if c.acquire(1, 1, true, false) != 0 {
		t.Fatal("batch acquire past cap granted")
	}

	// Interactive wants all 8 but batch holds 2: acquire must take the 6
	// free tokens immediately rather than blocking for a full drain.
	if got := c.acquire(6, 8, false, true); got != 6 {
		t.Fatalf("acquire(6,8) with 2 held = %d, want 6", got)
	}
	// Pool empty: a lo=1 try takes nothing, and a lo=1 acquisition must block
	// until a release.
	if got := c.acquire(1, 4, false, false); got != 0 {
		t.Fatalf("try on an empty pool took %d", got)
	}
	done := make(chan int)
	go func() { done <- c.acquire(1, 4, false, true) }()
	select {
	case n := <-done:
		t.Fatalf("acquire returned %d from an empty pool", n)
	case <-time.After(20 * time.Millisecond):
	}
	c.release(2, true) // batch done: frees 2, batchHeld back to 0
	if n := <-done; n != 2 {
		t.Fatalf("acquire after release = %d, want 2 (everything free, capped at hi=4 but only 2 exist)", n)
	}

	// hi caps the take even when more is free.
	c.release(6, false)
	c.release(2, false)
	if got := c.acquire(1, 3, false, false); got != 3 {
		t.Fatalf("acquire(1,3) with 8 free = %d, want 3", got)
	}
}

// TestInteractiveNotBlockedByBatchHold stages the starvation scenario the
// priority lanes exist to prevent: a batch operation holds its cores
// mid-execution, and an interactive scan must still reach execution on the
// reserved cores. Before the [reserve, want] acquire, the interactive pass demanded the full
// worker budget and would sit behind the batch hold for its entire runtime.
func TestInteractiveNotBlockedByBatchHold(t *testing.T) {
	cols, expect := testRelation(10000)
	s := newServer(t, Options{
		Workers:            8,
		QueueDepth:         16,
		MaxBatch:           4,
		InteractiveReserve: 6,
	})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	s.testHold = hold

	keys := workload.UniformInts(91, 2000, 64)
	vals := workload.UniformInts(92, 2000, 50)

	var wg sync.WaitGroup
	wg.Add(2)
	var batchErr, intErr error
	var intResp Response
	go func() {
		defer wg.Done()
		_, batchErr = s.Submit(context.Background(), Request{
			Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyLocalMerge,
			Priority: PriorityBatch, Tenant: "noisy",
		})
	}()

	// Wait until the batch operation holds its cores (blocked in testHold).
	waitFor(t, func() bool {
		s.cores.mu.Lock()
		defer s.cores.mu.Unlock()
		return s.cores.batchHeld > 0
	}, "batch operation never acquired cores")

	go func() {
		defer wg.Done()
		intResp, intErr = s.Submit(context.Background(), Request{
			Op: OpScan, Table: "events",
			Query:  scan.Query{FilterCol: 0, Lo: 100, Hi: 900, AggCol: 1},
			Tenant: "polite",
		})
	}()

	// The interactive pass must reach execution while the batch cores are
	// still held: all remaining tokens get taken (free drops to 0). With a
	// full-budget blocking acquire this never happens and the test times out
	// here.
	waitFor(t, func() bool {
		s.cores.mu.Lock()
		defer s.cores.mu.Unlock()
		return s.cores.free == 0 && s.cores.batchHeld > 0
	}, "interactive scan did not start while batch held cores")

	close(hold)
	wg.Wait()
	if batchErr != nil || intErr != nil {
		t.Fatalf("batch err=%v interactive err=%v", batchErr, intErr)
	}
	if want := expect(100, 900); intResp.Sum != want {
		t.Fatalf("interactive sum %d, want %d", intResp.Sum, want)
	}

	// Tenant attribution followed both requests through the engine.
	if th := s.TenantHealth("noisy"); th.Admitted != 1 || th.Completed != 1 {
		t.Fatalf("noisy tenant health: %+v", th)
	}
	if th := s.TenantHealth("polite"); th.Admitted != 1 || th.Completed != 1 {
		t.Fatalf("polite tenant health: %+v", th)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantHealthBreakdown drives labelled traffic and checks the per-tenant
// health snapshot and metrics registry dimensions.
func TestTenantHealthBreakdown(t *testing.T) {
	cols, _ := testRelation(10000)
	s := newServer(t, Options{QueueDepth: 64})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(ctx, Request{
			Op: OpScan, Table: "events",
			Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 1000, AggCol: 1}, Tenant: "a",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(ctx, Request{Op: OpScan, Table: "missing", Tenant: "b"}); err == nil {
		t.Fatal("scan of unknown table succeeded")
	}

	h := s.Health()
	ta, ok := h.Tenants["a"]
	if !ok {
		t.Fatalf("health has no tenant a: %+v", h.Tenants)
	}
	if ta.Admitted != 3 || ta.Completed != 3 || ta.Failed != 0 {
		t.Fatalf("tenant a health: %+v", ta)
	}
	if ta.LatencyMs.Count != 3 || ta.LatencyMs.P50 <= 0 {
		t.Fatalf("tenant a latency stats: %+v", ta.LatencyMs)
	}
	tb := h.Tenants["b"]
	if tb.Invalid != 1 {
		t.Fatalf("tenant b health: %+v", tb)
	}
	// Unknown tenants read as zero, not as a panic or an invented entry.
	if th := s.TenantHealth("nope"); th.Admitted != 0 {
		t.Fatalf("unknown tenant health: %+v", th)
	}
	// The flat registry carries the same dimensions for /metrics exposition.
	ctrs := s.Metrics().Counters()
	if ctrs["serve.tenant.a.completed"] != 3 {
		t.Fatalf("tenant counter missing: %v", ctrs)
	}
}
