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
	if h := s.Health(); h.Admitted != 2 || h.Completed != 2 {
		t.Fatalf("health after both requests: admitted %d, completed %d", h.Admitted, h.Completed)
	}
}

// TestHealthQueueDepthCountsBothLanes pins the executors, parks batch work
// behind the batch core cap and queues more behind it on the batch lane,
// which the dispatcher does not read while work is parked: Health's
// QueueDepth must count what waits there, as the serve.queue_depth gauge does.
func TestHealthQueueDepthCountsBothLanes(t *testing.T) {
	s := newServer(t, Options{Workers: 8, OpWorkers: 4, InteractiveReserve: 2, QueueDepth: 16})
	hold := make(chan struct{})
	s.testHold = hold
	group := Request{
		Op: OpGroupSum, Keys: []int64{1, 2, 3}, Vals: []int64{4, 5, 6}, Strategy: agg.StrategyGlobal,
		Priority: PriorityBatch,
	}
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), group); err != nil {
				t.Errorf("batch request: %v", err)
			}
		}()
	}
	// g1 holds 4 of the 6 batch-class cores; g2 does not fit and parks.
	submit()
	waitFor(t, func() bool { return s.coresFree.Value() == 4 }, "first batch operation never took its cores")
	submit()
	waitFor(t, func() bool { return s.Health().Admitted == 2 && len(s.intakeLo) == 0 }, "second batch operation never parked")
	const queued = 5
	for i := 0; i < queued; i++ {
		submit()
	}
	waitFor(t, func() bool { return s.Health().Admitted == 2+queued }, "batch requests never queued")
	if h := s.Health(); h.QueueDepth != queued {
		t.Errorf("Health().QueueDepth = %d with %d batch requests queued", h.QueueDepth, queued)
	}
	close(hold)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
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
