package shard

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hwstar/internal/serve"
	"hwstar/internal/workload"
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

// TestHedgeDeadline pins the measured hedge deadline row by row. Each row
// records durations straight into a bare router's op-class histograms — no
// clock, no sleep, no servers — then reads one class's deadline (0: the
// class does not hedge). A row with hedged > 0 then records that many
// hedged dispatches, each taking exactly the deadline in force, and the
// deadline must never fall while they do.
func TestHedgeDeadline(t *testing.T) {
	type samples struct {
		class int
		d     time.Duration
		n     int
	}
	const us = time.Microsecond
	scan, join, groupSum, q6 := opClass(serve.OpScan), opClass(serve.OpJoin), opClass(serve.OpGroupSum), opClass(serve.OpQ6)
	rows := []struct {
		name    string
		seam    time.Duration
		samples []samples
		hedged  int
		class   int
		want    time.Duration
	}{
		{name: "a cold class does not hedge",
			samples: []samples{{scan, time.Millisecond, hedgeWarmup - 1}},
			class:   scan, want: 0},
		{name: "the warm-up's last sample arms the class",
			samples: []samples{{scan, time.Millisecond, hedgeWarmup}},
			class:   scan, want: 1024 * us},
		{name: "the deadline is the upper edge of the p95's bucket",
			samples: []samples{{scan, 300 * us, 95}, {scan, 5 * time.Millisecond, 5}},
			class:   scan, want: 512 * us},
		{name: "six percent slow puts the p95 in the slow bucket",
			samples: []samples{{scan, 300 * us, 94}, {scan, 5 * time.Millisecond, 6}},
			class:   scan, want: 8192 * us},
		{name: "the minHedgeDelay floor",
			samples: []samples{{scan, 10 * us, 100}},
			class:   scan, want: minHedgeDelay},
		{name: "1000 fast scans do not move q6's deadline",
			samples: []samples{{q6, 3 * time.Millisecond, 100}, {scan, 20 * us, 1000}},
			class:   q6, want: 4096 * us},
		{name: "halving follows a 10x shift down within 4*halveAt",
			samples: []samples{{join, 5 * time.Millisecond, 4000}, {join, 500 * us, 4 * halveAt}},
			class:   join, want: 512 * us},
		{name: "hedged samples do not lower the deadline past the last bucket",
			samples: []samples{{groupSum, 300 * us, 100}},
			hedged:  4 * halveAt,
			class:   groupSum, want: time.Microsecond << (latencyBuckets - 1)},
		{name: "the hedgeDelay seam wins",
			seam:    7 * time.Millisecond,
			samples: []samples{{scan, 300 * us, 100}},
			class:   scan, want: 7 * time.Millisecond},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := &Router{opts: Options{hedgeDelay: row.seam}}
			for _, s := range row.samples {
				for i := 0; i < s.n; i++ {
					r.lat[s.class].record(s.d)
				}
			}
			for i := 0; i < row.hedged; i++ {
				d := r.hedgeDelayFor(row.class)
				r.lat[row.class].record(d)
				if next := r.hedgeDelayFor(row.class); next < d {
					t.Fatalf("hedged sample %d at the deadline %v lowered it to %v", i, d, next)
				}
			}
			if got := r.hedgeDelayFor(row.class); got != row.want {
				t.Fatalf("deadline = %v, want %v", got, row.want)
			}
		})
	}
}

// TestDispatchRecordsPerOpClass is the wiring check: every op has its own
// class, and every successful dispatch lands in its op's class. A scan
// dispatches once per stripe, so j scans on three shards record 3j; k Q6
// requests record k.
func TestDispatchRecordsPerOpClass(t *testing.T) {
	for c, op := range classOps {
		if opClass(op) != c {
			t.Fatalf("op %s maps to class %d, want its own class %d", op, opClass(op), c)
		}
	}
	const k, j = 5, 7
	cols, _ := testRelation(3000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	li := workload.LineItem(80, 2000)
	for i := 0; i < k; i++ {
		if _, err := r.Submit(context.Background(), serve.Request{Op: serve.OpQ6, Lineitem: li, Engine: "fused"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < j; i++ {
		if _, err := r.Submit(context.Background(), scanReq("ev", 0, 2999)); err != nil {
			t.Fatal(err)
		}
	}
	var want [opClasses]int64
	want[opClass(serve.OpScan)], want[opClass(serve.OpQ6)] = 3*j, k
	for c := range r.lat {
		var n int64
		for b := range r.lat[c].buckets {
			n += r.lat[c].buckets[b].Load()
		}
		if n != want[c] || r.lat[c].n.Load() != want[c] {
			t.Errorf("class %d holds %d samples (count %d), want %d", c, n, r.lat[c].n.Load(), want[c])
		}
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
