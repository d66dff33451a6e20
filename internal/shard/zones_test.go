package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
)

// TestScanNeedsOnlyStripesItsRangeHits: a stripe the range misses, or covers
// whole, is settled by its zone at the router, so losing every replica of it
// costs the scan nothing. On a 3x2 router with 1,000-row stripes, each case
// kills both replicas of one partition and scans a range that straddles the
// other two: the answer is the exact full sum, with no partial.
func TestScanNeedsOnlyStripesItsRangeHits(t *testing.T) {
	cols, expect := testRelation(3000)
	for _, c := range []struct {
		name   string
		lost   int // the partition whose replicas die
		lo, hi int64
	}{
		{"range misses the lost stripe", 2, 100, 1500},
		{"range covers the lost stripe whole", 1, 500, 2500},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRouter(t, Options{Shards: 3, Replicas: 2})
			if err := r.Register("ev", cols); err != nil {
				t.Fatal(err)
			}
			for _, nid := range r.tables["ev"].parts[c.lost].replicas {
				if err := r.KillNode(nid); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := r.Submit(context.Background(), scanReq("ev", c.lo, c.hi))
			if err != nil {
				t.Fatalf("scan [%d, %d] with partition %d lost: %v", c.lo, c.hi, c.lost, err)
			}
			if want := expect(c.lo, c.hi); resp.Sum != want || resp.Partial || resp.CoveredFraction != 1 {
				t.Fatalf("scan [%d, %d] = %d (partial %v, covered %v), want %d in full",
					c.lo, c.hi, resp.Sum, resp.Partial, resp.CoveredFraction, want)
			}
		})
	}
}

// TestPrunedScanKeepsValidation: zones settle only a valid scan whose caller
// still waits. Each case's range misses every stripe, so a router that
// settled it anyway would answer a silent 0; each must return the error the
// scan earned instead.
func TestPrunedScanKeepsValidation(t *testing.T) {
	cols, _ := testRelation(3000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	miss := func(q scan.Query) serve.Request {
		return serve.Request{Op: serve.OpScan, Table: "ev", Query: q}
	}
	for _, c := range []struct {
		name string
		ctx  context.Context
		req  serve.Request
		want error
	}{
		{"lo above hi", context.Background(), miss(scan.Query{FilterCol: 0, Lo: 5000, Hi: 4000, AggCol: 1}), errs.ErrInvalidInput},
		{"filter column out of range", context.Background(), miss(scan.Query{FilterCol: 2, Lo: 5000, Hi: 6000, AggCol: 1}), errs.ErrInvalidInput},
		{"agg column out of range", context.Background(), miss(scan.Query{FilterCol: 0, Lo: 5000, Hi: 6000, AggCol: 2}), errs.ErrInvalidInput},
		{"unknown table", context.Background(), scanReq("nope", 5000, 6000), errs.ErrInvalidInput},
		{"unknown priority", context.Background(), serve.Request{Op: serve.OpScan, Table: "ev", Priority: "urgent",
			Query: scan.Query{FilterCol: 0, Lo: 5000, Hi: 6000, AggCol: 1}}, errs.ErrInvalidInput},
		{"cancelled context", cancelled, scanReq("ev", 5000, 6000), context.Canceled},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := r.Submit(c.ctx, c.req)
			if !errors.Is(err, c.want) {
				t.Fatalf("got sum %d, err %v; want %v", resp.Sum, err, c.want)
			}
		})
	}
}

// TestFailedStripeFailsPrunedScan: only a stripe that lost its replicas
// degrades a scan to a partial. On a 3x2 router whose every node fails each
// scan pass with a transient fault and retries none, a scan that zones
// settle in part still covers rows from those zones, yet it must return the
// dispatched stripes' own error, as a shed or cancelled stripe must: that
// error is the caller's to retry, where a partial would pass for an answer.
func TestFailedStripeFailsPrunedScan(t *testing.T) {
	cols, _ := testRelation(3000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour,
		Shard: serve.Options{Faults: fault.New(fault.Config{Seed: 3, TransientProb: 1})}})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	for _, req := range []serve.Request{
		scanReq("ev", 100, 900),  // 1 dispatched, 2 pruned
		scanReq("ev", 500, 2500), // 2 dispatched, 1 summed
	} {
		resp, err := r.Submit(context.Background(), req)
		if !errors.Is(err, errs.ErrTransient) || errors.Is(err, errs.ErrPartialResult) {
			t.Fatalf("scan [%d, %d]: sum %d, err %v; want the stripes' ErrTransient, not a partial",
				req.Query.Lo, req.Query.Hi, resp.Sum, err)
		}
	}
}

// TestStripeCountersExplainDispatches pins the router's zone counters over a
// known query set on a 3x2 router with 1,000-row stripes: every stripe of
// every scan is pruned (shard.stripes_pruned), summed from its zone
// (shard.stripes_summed) or dispatched to exactly one node (hedging is off).
func TestStripeCountersExplainDispatches(t *testing.T) {
	cols, _ := testRelation(3000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	for _, req := range []serve.Request{
		scanReq("ev", 100, 900),   // 1 dispatched, 2 pruned
		scanReq("ev", 500, 2500),  // 2 dispatched, 1 summed
		scanReq("ev", 0, 2999),    // 3 summed
		scanReq("ev", 5000, 6000), // 3 pruned
		straddleReq("ev"),         // 3 dispatched
	} {
		if _, err := r.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	c := r.Metrics().Counters()
	var dispatched int64
	for _, n := range r.ClusterHealth().Nodes {
		dispatched += n.Serve.Admitted
	}
	if c["shard.stripes_pruned"] != 5 || c["shard.stripes_summed"] != 4 || dispatched != 6 {
		t.Fatalf("pruned %d, summed %d, dispatched %d; want 5, 4, 6",
			c["shard.stripes_pruned"], c["shard.stripes_summed"], dispatched)
	}
}

// Ceilings of TestPrunedScanAllocs, each measured + 2 like
// scatterAllocsCeiling, and like it counting the test's cancellable parent
// (2 objects: the context and its cancel func): a scan that dispatches one
// stripe pays one stripe's share of that ceiling (19 measured while the
// cancel context hung off the caller's), and a scan every zone settles
// allocates nothing of its own.
const (
	oneStripeAllocsCeiling = 13 + 2
	noStripeAllocsCeiling  = 2 + 2
)

// TestPrunedScanAllocs pins the garbage of warm scans on a 3x2 router with
// hedging forbidden: one whose range hits a single stripe, and one whose
// range misses every stripe.
func TestPrunedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	cols, expect := testRelation(30_000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		lo, hi  int64
		ceiling int
	}{
		{"one stripe", 12_000, 15_000, oneStripeAllocsCeiling},
		{"no stripe", 40_000, 50_000, noStripeAllocsCeiling},
	} {
		req := scanReq("ev", c.lo, c.hi)
		want := expect(c.lo, c.hi)
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
				t.Fatalf("%s: scan = %d, want %d", c.name, resp.Sum, want)
			}
		}
		for i := 0; i < 20; i++ {
			scan()
		}
		if got := testing.AllocsPerRun(200, scan); got > float64(c.ceiling) {
			t.Fatalf("%s: a warm scan allocated %.1f objects, ceiling %d", c.name, got, c.ceiling)
		}
	}
}

// fuzzColumn fills n values of one shape: a noisy ramp, uniform over a wide
// domain, all negative, or clustered at both ends of the int64 domain so
// sums wrap.
func fuzzColumn(rng *rand.Rand, shape uint8, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch shape % 4 {
		case 0:
			out[i] = int64(i)*64 + rng.Int63n(256) - 128
		case 1:
			out[i] = rng.Int63n(1<<40) - 1<<39
		case 2:
			out[i] = -1 - rng.Int63n(1<<20)
		default:
			if rng.Intn(2) == 0 {
				out[i] = math.MinInt64 + rng.Int63n(1024)
			} else {
				out[i] = math.MaxInt64 - rng.Int63n(1024)
			}
		}
	}
	return out
}

// fuzzBound picks one end of a scan range. The low two bits of pick choose
// what: a stripe's exact zone min or max, one row's value, or an end of the
// int64 domain; the next two nudge it by -1, 0, +1 or -1 (wrapping); the
// rest pick the stripe, the row or the end.
func fuzzBound(filter []int64, nparts int, pick uint16) int64 {
	rows, idx := len(filter), int(pick>>4)
	stripe := filter[rows*(idx%nparts)/nparts : rows*(idx%nparts+1)/nparts]
	var v int64
	switch pick & 3 {
	case 0:
		v = slices.Min(stripe)
	case 1:
		v = slices.Max(stripe)
	case 2:
		v = filter[idx%rows]
	default:
		v = math.MinInt64
		if idx%2 == 1 {
			v = math.MaxInt64
		}
	}
	return v + int64((pick>>2)&3)%3 - 1
}

// pick builds fuzzBound's argument: kind 0 zone min, 1 zone max, 2 a row's
// value, 3 a domain end; delta in -1…1; idx the stripe, row or end.
func pick(kind, delta, idx int) uint16 { return uint16(kind | (delta+1)<<2 | idx<<4) }

// FuzzScatterMatchesOracle checks the router's scan against a single-node
// oracle, a plain loop over the unsplit columns, across cluster shapes (N in
// 1…6, every R, tables with fewer rows than nodes), column shapes whose
// sums wrap, ranges that end exactly on a stripe's zone or one past it, and
// a filter column that is also the aggregate column.
func FuzzScatterMatchesOracle(f *testing.F) {
	// seed, shapes (filter | agg<<2: ramp, uniform, negative, extremes),
	// N, R, rows, lo, hi, FilterCol == AggCol.
	f.Add(int64(1), uint8(0), uint8(3), uint8(2), uint16(3000), pick(0, 0, 0), pick(1, 0, 1), false)    // stripes 0-1 exactly
	f.Add(int64(2), uint8(0), uint8(3), uint8(2), uint16(3000), pick(0, 1, 1), pick(1, -1, 1), false)   // inside stripe 1
	f.Add(int64(3), uint8(0), uint8(3), uint8(2), uint16(3000), pick(1, 1, 0), pick(0, -1, 2), false)   // between stripes 0 and 2
	f.Add(int64(4), uint8(0), uint8(4), uint8(1), uint16(4000), pick(0, -1, 1), pick(1, 1, 2), true)    // one past stripes 1-2
	f.Add(int64(5), uint8(1), uint8(4), uint8(4), uint16(2500), pick(2, 0, 17), pick(2, 0, 900), false) // uniform
	f.Add(int64(6), uint8(2|2<<2), uint8(6), uint8(3), uint16(1500), pick(0, 0, 2), pick(1, 0, 4), true)
	f.Add(int64(7), uint8(3|3<<2), uint8(3), uint8(2), uint16(3000), pick(3, 0, 0), pick(3, 0, 1), false) // every value; sums wrap
	f.Add(int64(8), uint8(3|3<<2), uint8(2), uint8(1), uint16(2000), pick(0, 0, 1), pick(3, 0, 1), true)
	f.Add(int64(9), uint8(0|3<<2), uint8(6), uint8(4), uint16(4), pick(0, 0, 1), pick(1, 0, 2), false) // rows < N
	f.Add(int64(10), uint8(1|3<<2), uint8(1), uint8(1), uint16(1024), pick(3, 1, 0), pick(2, 0, 5), false)
	f.Add(int64(11), uint8(0), uint8(5), uint8(5), uint16(5000), pick(1, 0, 3), pick(0, 0, 3), false) // lo > hi
	f.Fuzz(func(t *testing.T, seed int64, shape, nodes, reps uint8, rows, loPick, hiPick uint16, sameCol bool) {
		n := 1 + (int(nodes)+5)%6 // nodes 1…6 is N itself
		rep := 1 + (int(reps)+n-1)%n
		nrows := 1 + (int(rows)+5999)%6000
		rng := rand.New(rand.NewSource(seed))
		cols := [][]int64{fuzzColumn(rng, shape, nrows), fuzzColumn(rng, shape>>2, nrows)}
		nparts := min(n, nrows)
		q := scan.Query{FilterCol: 0, AggCol: 1,
			Lo: fuzzBound(cols[0], nparts, loPick), Hi: fuzzBound(cols[0], nparts, hiPick)}
		if sameCol {
			q.AggCol = 0
		}

		r := newRouter(t, Options{Shards: n, Replicas: rep, Shard: serve.Options{Workers: 1}, hedgeDelay: time.Hour})
		if err := r.Register("t", cols); err != nil {
			t.Fatal(err)
		}
		resp, err := r.Submit(context.Background(), serve.Request{Op: serve.OpScan, Table: "t", Query: q})
		if q.Lo > q.Hi {
			if !errors.Is(err, errs.ErrInvalidInput) {
				t.Fatalf("N%d-R%d, %d rows, empty range [%d, %d]: sum %d, err %v; want ErrInvalidInput",
					n, rep, nrows, q.Lo, q.Hi, resp.Sum, err)
			}
			return
		}
		if err != nil || resp.Partial || resp.CoveredFraction != 1 {
			t.Fatalf("N%d-R%d, %d rows, [%d, %d]: partial %v covered %v err %v",
				n, rep, nrows, q.Lo, q.Hi, resp.Partial, resp.CoveredFraction, err)
		}
		if want := oracleSum(cols, q); resp.Sum != want {
			t.Fatalf("N%d-R%d, %d rows, [%d, %d] (agg col %d): router %d, oracle %d",
				n, rep, nrows, q.Lo, q.Hi, q.AggCol, resp.Sum, want)
		}
	})
}
