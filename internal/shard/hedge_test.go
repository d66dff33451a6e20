package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"hwstar/internal/agg"
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
		cols, _ := testRelation(4000)
		req := straddleReq("ev")
		want := oracleSum(cols, req.Query)
		r := newRouter(t, Options{Shards: 4, Replicas: 2, hedgeDelay: time.Nanosecond})
		defer r.Close()
		if err := r.Register("ev", cols); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			resp, err := r.Submit(context.Background(), req)
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
		if _, err := r.Submit(context.Background(), straddleReq("ev")); err != nil {
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
			class:   groupSum, want: maxHedgeDelay},
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

// TestHedgeDeadlineMatchesSortedP95 replays seeded dispatch streams that
// stay below halveAt, mixing fast, typical and straggling dispatches of
// sub-µs to seconds, and checks the deadline after every record against an
// oracle over the sorted samples: the nearest-rank p95, rounded up to the
// next power of two of microseconds, floored and capped.
func TestHedgeDeadlineMatchesSortedP95(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c latencyClass
		var us []int64
		scale := 1 + rng.Intn(20)
		for len(us) < halveAt-1 {
			d := time.Duration(rng.ExpFloat64() * float64(scale) * float64(50*time.Microsecond))
			if rng.Intn(20) == 0 {
				d *= time.Duration(1 + rng.Intn(5000))
			}
			c.record(d)
			us = append(us, d.Microseconds())
			want := time.Duration(0)
			if len(us) >= hedgeWarmup {
				sorted := slices.Sorted(slices.Values(us))
				p95 := sorted[(len(sorted)*95+99)/100-1]
				want = min(maxHedgeDelay, max(minHedgeDelay, time.Microsecond<<bits.Len64(uint64(p95))))
			}
			if got := c.deadline(); got != want {
				t.Fatalf("seed %d, after %d dispatches: deadline %v, sorted p95 gives %v", seed, len(us), got, want)
			}
		}
	}
}

// TestDispatchRecordsPerOpClass is the wiring check: every op has its own
// class, and every successful dispatch lands in its op's class. A scan no
// stripe's zone settles dispatches once per stripe, so j of them on three
// shards record 3j; k Q6 requests record k.
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
		if _, err := r.Submit(context.Background(), straddleReq("ev")); err != nil {
			t.Fatal(err)
		}
	}
	var want [opClasses]int64
	want[opClass(serve.OpScan)], want[opClass(serve.OpQ6)] = 3*j, k
	for c := range r.lat {
		n := int64(r.lat[c].h.Count())
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

// TestCancelledInlineRequestLaunchesNothing: a group-sum or join whose
// caller is already gone returns the cancellation without launching a single
// attempt, so no node admits work nobody is waiting for.
func TestCancelledInlineRequestLaunchesNothing(t *testing.T) {
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 41, BuildRows: 200, ProbeRows: 800})
	join := serve.Request{Op: serve.OpJoin}
	join.Join.BuildKeys, join.Join.BuildVals = g.BuildKeys, g.BuildVals
	join.Join.ProbeKeys, join.Join.ProbeVals = g.ProbeKeys, g.ProbeVals
	groupSum := serve.Request{Op: serve.OpGroupSum, Keys: []int64{1, 2, 1}, Vals: []int64{4, 5, 6}, Strategy: agg.StrategyGlobal}
	for i := 0; i < 20; i++ {
		for _, req := range []serve.Request{groupSum, join} {
			if _, err := r.Submit(ctx, req); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled %s: err = %v, want context.Canceled", req.Op, err)
			}
		}
	}
	for i, n := range admittedPerNode(r) {
		if n != 0 {
			t.Fatalf("node %d admitted %d cancelled requests, want 0", i, n)
		}
	}
}

// TestFailedAttemptsAreNotRecorded drives failing attempts through the
// fan-out: node 0's server is closed while the router still routes to it, so
// every attempt that lands there fails with ErrClosed and its stripe fails
// over to the other replica. Only the stripes that succeeded may add a
// sample to the scan class, so j scans on three shards still record exactly
// 3j, however many attempts failed on the way.
func TestFailedAttemptsAreNotRecorded(t *testing.T) {
	const j = 12
	cols, _ := testRelation(3000)
	req := straddleReq("ev")
	want := oracleSum(cols, req.Query)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	r.nodes[0].srv.Load().Close()
	for i := 0; i < j; i++ {
		resp, err := r.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sum != want {
			t.Fatalf("scan %d = %d, want %d", i, resp.Sum, want)
		}
	}
	if ch := r.ClusterHealth(); ch.Failovers == 0 {
		t.Fatal("no attempt failed: the test drove nothing through the failure path")
	}
	scan := &r.lat[opClass(serve.OpScan)]
	if n := scan.n.Load(); n != 3*j {
		t.Fatalf("scan class holds %d samples after %d scans of 3 stripes with failed attempts, want %d", n, j, 3*j)
	}
}

// TestHedgeLoserNeverSeesRecycledState pins the pool rule of the fan-out:
// its state goes back to the pool only once every attempt it launched has
// reported. A 1ns deadline hedges every stripe, so most requests return
// with a loser still running, and eight clients alternate two tables whose
// sums differ. A loser that read a recycled Request would scan the other
// client's stripe, and one that wrote into a recycled slot would hand its
// answer to the other client's stripe: either way a total is wrong. Run it
// under -race, where the detector also sees the write.
func TestHedgeLoserNeverSeesRecycledState(t *testing.T) {
	const clients, scans = 8, 64
	colsA, _ := testRelation(6000)
	colsB := [][]int64{colsA[0], make([]int64, len(colsA[1]))}
	for i, v := range colsA[1] {
		colsB[1][i] = 3*v + 1
	}
	q := straddleReq("").Query
	wantA, wantB := oracleSum(colsA, q), oracleSum(colsB, q)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Nanosecond})
	if err := r.Register("a", colsA); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", colsB); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < scans; i++ {
				table, want := "a", wantA
				if (c+i)%2 == 1 {
					table, want = "b", wantB
				}
				resp, err := r.Submit(context.Background(), straddleReq(table))
				if err == nil && resp.Sum != want {
					err = fmt.Errorf("client %d scan %d of %q = %d, want %d", c, i, table, resp.Sum, want)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if ch := r.ClusterHealth(); ch.Hedges == 0 {
		t.Fatal("1ns hedge delay produced no hedges")
	}
}
