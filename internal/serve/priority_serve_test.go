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
	// Its cores are capped at the batch budget: 8-6 = 2.
	waitFor(t, func() bool { return s.coresFree.Value() == 6 }, "batch operation never acquired cores")

	go func() {
		defer wg.Done()
		intResp, intErr = s.Submit(context.Background(), Request{
			Op: OpScan, Table: "events",
			Query:  scan.Query{FilterCol: 0, Lo: 100, Hi: 900, AggCol: 1},
			Tenant: "polite",
		})
	}()

	// The interactive pass must reach execution while the batch cores are
	// still held: all remaining cores get taken (free drops to 0 before the
	// held batch operation can release). Demanding the full budget, it would
	// wait here until the test times out.
	waitFor(t, func() bool { return s.coresFree.Value() == 0 }, "interactive scan did not start while batch held cores")

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
