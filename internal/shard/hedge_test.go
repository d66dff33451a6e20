package shard

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestHedgedDispatchCancelLeaksNoGoroutines pins the hedge cancel path:
// with an aggressive fixed hedge delay every scan hedges to a second
// replica and cancels the loser; after the storm and router close, the
// goroutine count must return to baseline — a cancelled loser that blocks
// forever (unbuffered result channel, ignored context) would show up
// here.
func TestHedgedDispatchCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		cols, expect := testRelation(4000)
		want := expect(0, 3999)
		r := newRouter(t, Options{Shards: 4, Replicas: 2, hedgeDelay: time.Nanosecond})
		defer r.Close()
		if err := r.Register("ev", cols); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			resp, err := r.Submit(context.Background(), scanReq("ev", 0, 3999))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Sum != want {
				t.Fatalf("hedged scan %d = %d, want %d", i, resp.Sum, want)
			}
		}
		if ch := r.ClusterHealth(); ch.Hedges == 0 {
			t.Fatal("1ns hedge delay produced no hedges")
		}
	}()

	// Losers unwind asynchronously after cancel; poll for quiescence.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked by hedge cancel path: before=%d after=%d\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// TestHedgeWinsRecorded drives hedges and checks the win counter moves —
// with both replicas healthy and a 1ns delay, some hedged attempts must
// beat their primaries over enough trials.
func TestHedgeWinsRecorded(t *testing.T) {
	cols, _ := testRelation(2000)
	r := newRouter(t, Options{Shards: 2, Replicas: 2, hedgeDelay: time.Nanosecond})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := r.Submit(context.Background(), scanReq("ev", 0, 1999)); err != nil {
			t.Fatal(err)
		}
	}
	ch := r.ClusterHealth()
	if ch.Hedges == 0 {
		t.Fatal("no hedges fired")
	}
	t.Logf("hedges=%d wins=%d", ch.Hedges, ch.HedgeWins)
}

// TestCostModelDerivedHedgeDelay checks the deadline derivation: with no
// fixed override the delay comes from estimated cycles × calibrated
// ns-per-cycle × multiplier, floored at minHedgeDelay.
func TestCostModelDerivedHedgeDelay(t *testing.T) {
	r := newRouter(t, Options{Shards: 2, Replicas: 2})
	small := r.hedgeDelayFor(10)
	if small != minHedgeDelay {
		t.Fatalf("tiny estimate delay = %v, want floor %v", small, minHedgeDelay)
	}
	big := r.hedgeDelayFor(1e12)
	if big <= minHedgeDelay {
		t.Fatalf("huge estimate delay = %v, want above floor", big)
	}

	// Calibration moves with observations.
	r.observeWall(100*time.Millisecond, 1e6) // 100ns per cycle observed
	if got := r.wallNsPerCycle(); got <= defaultNsPerCycle {
		t.Fatalf("EWMA did not move: %v", got)
	}

	// Fixed override wins.
	r2 := newRouter(t, Options{Shards: 2, Replicas: 2, hedgeDelay: 7 * time.Millisecond})
	if got := r2.hedgeDelayFor(1e12); got != 7*time.Millisecond {
		t.Fatalf("fixed delay = %v, want 7ms", got)
	}
}

// TestParentCancellationPropagates: a cancelled caller context aborts the
// dispatch promptly with the context error, not a replica error.
func TestParentCancellationPropagates(t *testing.T) {
	cols, _ := testRelation(2000)
	r := newRouter(t, Options{Shards: 2, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Submit(ctx, scanReq("ev", 0, 1999)); err == nil {
		t.Fatal("cancelled submit succeeded")
	}
}
