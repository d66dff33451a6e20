package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/cluster"
	"hwstar/internal/errs"
	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

// testRelation builds an n-row two-column relation (sequential keys,
// deterministic values) and an exact-sum oracle over key ranges.
func testRelation(n int) (cols [][]int64, expect func(lo, hi int64) int64) {
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i%97) + 1
	}
	return [][]int64{keys, vals}, func(lo, hi int64) int64 {
		var sum int64
		for i := range keys {
			if keys[i] >= lo && keys[i] <= hi {
				sum += vals[i]
			}
		}
		return sum
	}
}

func newRouter(t testing.TB, opts Options) *Router {
	t.Helper()
	if opts.Shard.Workers == 0 {
		opts.Shard.Workers = 4
	}
	r, err := New(context.Background(), hw.Server2S(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func scanReq(table string, lo, hi int64) serve.Request {
	return serve.Request{Op: serve.OpScan, Table: table, Query: scan.Query{FilterCol: 0, Lo: lo, Hi: hi, AggCol: 1}}
}

// straddleReq is a scan that no stripe's zone settles, on a testRelation
// table whose stripes hold 97 rows or more: it filters the value column
// (i%97 + 1, so each such stripe's zone is [1, 97]) over [2, 97], which
// neither misses a stripe nor covers one whole. Tests of dispatch — hedging,
// failover, placement, recovery — use it to send every stripe through the
// fan-out; oracleSum gives its answer.
func straddleReq(table string) serve.Request {
	return serve.Request{Op: serve.OpScan, Table: table, Query: scan.Query{FilterCol: 1, Lo: 2, Hi: 97, AggCol: 0}}
}

// oracleSum is a scan's answer over the unsplit columns: a plain loop, the
// single-node truth the router's sums are checked against.
func oracleSum(cols [][]int64, q scan.Query) int64 {
	var sum int64
	for i, v := range cols[q.FilterCol] {
		if v >= q.Lo && v <= q.Hi {
			sum += cols[q.AggCol][i]
		}
	}
	return sum
}

// holdsStripe reports whether the node's own server can serve the stripe.
func holdsStripe(n *node, derived string) bool {
	_, err := n.srv.Load().Submit(context.Background(), scanReq(derived, 0, 0))
	return err == nil
}

func TestShardedScanMatchesSingleNode(t *testing.T) {
	cols, expect := testRelation(10_000)
	r := newRouter(t, Options{Shards: 4, Replicas: 2})
	if err := r.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int64{{0, 9999}, {100, 5000}, {9000, 9999}, {42, 42}} {
		resp, err := r.Submit(context.Background(), scanReq("events", rng[0], rng[1]))
		if err != nil {
			t.Fatalf("scan [%d,%d]: %v", rng[0], rng[1], err)
		}
		if want := expect(rng[0], rng[1]); resp.Sum != want {
			t.Fatalf("scan [%d,%d] = %d, want %d", rng[0], rng[1], resp.Sum, want)
		}
		if resp.Partial || resp.CoveredFraction != 1 {
			t.Fatalf("healthy cluster returned partial=%v covered=%v", resp.Partial, resp.CoveredFraction)
		}
	}
}

func TestDistributedJoinExactBothStrategies(t *testing.T) {
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 9, BuildRows: 2000, ProbeRows: 8000})
	in := serve.Request{Op: serve.OpJoin}
	in.Join.BuildKeys, in.Join.BuildVals = g.BuildKeys, g.BuildVals
	in.Join.ProbeKeys, in.Join.ProbeVals = g.ProbeKeys, g.ProbeVals

	// Single-node truth.
	solo := newRouter(t, Options{Shards: 1, Replicas: 1})
	want, err := solo.SubmitDist(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	r := newRouter(t, Options{Shards: 4, Replicas: 2})
	got, err := r.SubmitDist(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Fatalf("distributed join = %d/%d, want %d/%d", got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	if got.Strategy != cluster.StrategyShuffle && got.Strategy != cluster.StrategyBroadcast {
		t.Fatalf("no strategy recorded: %+v", got)
	}
	if got.NetworkCycles <= 0 || got.BytesMoved <= 0 {
		t.Fatalf("fabric not priced: net=%v bytes=%d", got.NetworkCycles, got.BytesMoved)
	}
}

func TestGroupSumRoutesExactly(t *testing.T) {
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	keys := []int64{1, 2, 1, 3, 2, 1}
	vals := []int64{10, 20, 30, 40, 50, 60}
	resp, err := r.Submit(context.Background(), serve.Request{Op: serve.OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyLocalMerge})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Groups[1] != 100 || resp.Groups[2] != 70 || resp.Groups[3] != 40 {
		t.Fatalf("groups = %v", resp.Groups)
	}
}

func TestRouterClosedSheds(t *testing.T) {
	r := newRouter(t, Options{Shards: 2, Replicas: 1})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(context.Background(), scanReq("x", 0, 1)); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := r.Register("x", [][]int64{{1}, {2}}); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
}

func TestUnknownTableIsInvalid(t *testing.T) {
	r := newRouter(t, Options{Shards: 2, Replicas: 1})
	if _, err := r.Submit(context.Background(), scanReq("nope", 0, 1)); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("unknown table: %v, want ErrInvalidInput", err)
	}
}

func TestReplicasActuallyRegistered(t *testing.T) {
	cols, _ := testRelation(1000)
	r := newRouter(t, Options{Shards: 4, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	meta := r.tables["ev"]
	nodes := r.nodes
	r.mu.RUnlock()
	totalRows := 0
	for _, part := range meta.parts {
		if len(part.replicas) != 2 {
			t.Fatalf("partition %d has %d replicas, want 2", part.id, len(part.replicas))
		}
		totalRows += part.rows
		for _, nid := range part.replicas {
			if !holdsStripe(nodes[nid], part.derived) {
				t.Fatalf("node %d missing stripe %s", nid, part.derived)
			}
		}
	}
	if totalRows != 1000 {
		t.Fatalf("partitions cover %d rows, want 1000", totalRows)
	}
}

func TestClusterHealthSurfacesRoutingCounters(t *testing.T) {
	cols, _ := testRelation(400)
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(context.Background(), straddleReq("ev")); err != nil {
		t.Fatal(err)
	}
	ch := r.ClusterHealth()
	if ch.Shards != 3 || ch.Replicas != 2 || ch.LiveNodes != 3 {
		t.Fatalf("topology = %+v", ch)
	}
	h := r.Health()
	if h.Completed == 0 {
		t.Fatalf("aggregated health shows no completions: %+v", h)
	}
}

// BenchmarkScatter is the router layer: one scan scattered over a 3x2
// router's three stripes, each dispatched (and hedged when slow) to a
// replica, then merged; one client, one scan at a time. The 300 K-row table
// has a clustered filter column (zone maps prune or fast-sum most blocks, so
// the hop is most of the time) or a uniform one (every block decodes).
func BenchmarkScatter(b *testing.B) {
	const rows = 300_000
	shapes := []struct {
		name   string
		filter []int64
		lo, hi int64
	}{
		{"clustered", workload.SequentialInts(rows), rows / 3, rows / 2},
		{"uniform", workload.UniformInts(91, rows, 10_000), 2_000, 4_000},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			r := newRouter(b, Options{Shards: 3, Replicas: 2})
			if err := r.Register("facts", [][]int64{shape.filter, workload.UniformInts(92, rows, 500)}); err != nil {
				b.Fatal(err)
			}
			req := scanReq("facts", shape.lo, shape.hi)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Submit(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.ClusterHealth().Hedges)/float64(b.N), "hedges/op")
		})
	}
}

// scatterAllocsCeiling is what one warm scan over a 3x2 router may allocate
// under a cancellable parent: that parent (2 objects, the context and its
// cancel func), the attempts' cancel context and its detached root, each
// stripe's executor goroutine on its node, the
// attempts' goroutine arguments, and the response path. Measured 25 + 2
// (35 while the cancel context hung off the caller's, each run made a hedge
// timer and each stripe's pass a scheduler and a per-worker slice). The
// fan-out's subs, candidates, results channel and hedge timer are pooled,
// and so are serve's per-request pending, per-pass batch and scan
// schedulers; a per-stripe slice, channel or timer puts it over.
const scatterAllocsCeiling = 27

// TestScatterAllocs pins the router hop's garbage: a warm 3x2 router with
// hedging forbidden, so every request's state goes back to the pool.
func TestScatterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	cols, _ := testRelation(30_000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	req := straddleReq("ev") // every stripe goes through the fan-out
	want := oracleSum(cols, req.Query)
	scan := func() {
		// A fresh cancellable parent per scan, as net/http gives the frontend:
		// a context derived from it costs it a children map and a Done
		// channel, which context.Background would hide.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		resp, err := r.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sum != want {
			t.Fatalf("scan = %d, want %d", resp.Sum, want)
		}
	}
	for i := 0; i < 20; i++ {
		scan()
	}
	if got := testing.AllocsPerRun(200, scan); got > scatterAllocsCeiling {
		t.Fatalf("a warm scan allocated %.1f objects, ceiling %d", got, scatterAllocsCeiling)
	}
}
