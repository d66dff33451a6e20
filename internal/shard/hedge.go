package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"hwstar/internal/errs"
	"hwstar/internal/serve"
)

// hedgeOutcome is the routing story of one replicated dispatch.
type hedgeOutcome struct {
	hedged    bool
	failovers int
}

// The hedge deadline of an op class is the upper edge of the log2-µs bucket
// holding the p95 of the class's recent dispatch times (Dean & Barroso, "The
// Tail at Scale"), floored at minHedgeDelay: below it a hedge would race
// scheduling noise, not stragglers. Bucket b counts dispatches of
// [2^(b-1), 2^b) µs, bucket 0 those under 1 µs, and the last bucket
// everything slower.
//
// A class with fewer than hedgeWarmup samples has no p95 yet and does not
// hedge. When a class reaches halveAt samples every bucket halves, so the p95
// is over the last few hundred dispatches: a lasting 10x shift either way is
// followed within 4*halveAt dispatches.
const (
	minHedgeDelay  = 50 * time.Microsecond
	latencyBuckets = 24
	hedgeWarmup    = 64
	halveAt        = 512
)

// classOps lists the op classes in index order: a class's dispatches share
// one latency histogram. An op not listed shares the last class.
var classOps = [...]serve.Op{serve.OpScan, serve.OpJoin, serve.OpGroupSum, serve.OpQ1, serve.OpQ6}

const opClasses = len(classOps)

func opClass(op serve.Op) int {
	c := 0
	for c < opClasses-1 && classOps[c] != op {
		c++
	}
	return c
}

// latencyClass is one op class's histogram of successful dispatch times.
// Recording and reading are atomic adds and loads: no lock, no sort, no
// allocation on the dispatch path.
type latencyClass struct {
	n       atomic.Int64 // samples recorded minus samples halved away
	buckets [latencyBuckets]atomic.Int64
}

func (c *latencyClass) record(d time.Duration) {
	b := bits.Len64(uint64(d.Microseconds()))
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	c.buckets[b].Add(1)
	// Only the record that takes the count to halveAt halves, and the count
	// cannot reach it again before that halving has subtracted what it removed.
	if c.n.Add(1) != halveAt {
		return
	}
	var removed int64
	for i := range c.buckets {
		half := (c.buckets[i].Load() + 1) / 2 // a concurrent record's add is kept
		c.buckets[i].Add(-half)
		removed += half
	}
	c.n.Add(-removed)
}

// deadline returns the class's hedge deadline, or 0 while it warms up. A
// halving between the loads of the count and of the buckets can leave the
// walk short of the rank; that one dispatch then waits out the last bucket.
func (c *latencyClass) deadline() time.Duration {
	n := c.n.Load()
	if n < hedgeWarmup {
		return 0
	}
	rank := n - n/20 // ceil(0.95 n)
	var cum int64
	b := 0
	for ; b < latencyBuckets-1; b++ {
		if cum += c.buckets[b].Load(); cum >= rank {
			break
		}
	}
	return max(minHedgeDelay, time.Microsecond<<b)
}

// hedgeDelayFor returns how long a dispatch of class c waits on an attempt
// before hedging, or 0 for never. The hedgeDelay test seam overrides it.
func (r *Router) hedgeDelayFor(c int) time.Duration {
	if r.opts.hedgeDelay > 0 {
		return r.opts.hedgeDelay
	}
	return r.lat[c].deadline()
}

// attemptResult is one replica's answer.
type attemptResult struct {
	resp   serve.Response
	err    error
	node   *node
	hedged bool
}

// dispatch sends req to the replica set with failover and hedged dispatch:
//
//   - candidates are ordered live-first and breaker-aware;
//   - the primary attempt starts immediately; if it has not answered
//     within the op class's hedge deadline (the p95 of its recent
//     dispatches), the same request is hedged to the next candidate and
//     whichever answers first wins, the loser's context cancelled;
//   - a failed attempt (node died, shed, errored) fails over to the next
//     unused candidate immediately;
//   - only when every candidate has failed does the dispatch fail.
//
// A successful dispatch records its time from the first launch to the
// winning answer in its class. A hedged dispatch therefore records at least
// its deadline, so hedging cannot pull the p95 down into a hedge storm.
//
// The results channel is buffered to the attempt count and every attempt
// goroutine sends exactly one result, so no goroutine outlives the
// dispatch uncollected — the hedged-dispatch cancel path is leak-free (a
// test pins this).
func (r *Router) dispatch(ctx context.Context, replicas []int, req serve.Request) (serve.Response, hedgeOutcome, error) {
	start := time.Now()
	cands := r.candidates(replicas, start)
	if len(cands) == 0 {
		return serve.Response{}, hedgeOutcome{}, fmt.Errorf("shard: no live replica for %q (replicas %v): %w",
			req.Table, replicas, errs.ErrDegraded)
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, len(cands))
	var launched int
	launch := func(n *node, hedged bool) {
		launched++
		go func() {
			srv := n.server()
			if srv == nil || !n.alive.Load() {
				results <- attemptResult{err: fmt.Errorf("shard: node %d down: %w", n.id, errs.ErrDegraded), node: n, hedged: hedged}
				return
			}
			resp, err := srv.Submit(actx, req)
			results <- attemptResult{resp: resp, err: err, node: n, hedged: hedged}
		}()
	}

	launch(cands[0], false)
	class := opClass(req.Op)
	var hedge <-chan time.Time // nil while the class is warming up: never hedge
	if d := r.hedgeDelayFor(class); d > 0 {
		hedgeTimer := time.NewTimer(d)
		defer hedgeTimer.Stop()
		hedge = hedgeTimer.C
	}

	var out hedgeOutcome
	var lastErr error
	pending := 1
	for pending > 0 {
		select {
		case <-ctx.Done():
			return serve.Response{}, out, fmt.Errorf("shard: dispatch cancelled: %w", ctx.Err())
		case <-hedge:
			// Primary exceeded the class's deadline: hedge to the next
			// unused candidate, if any.
			if launched < len(cands) {
				out.hedged = true
				r.reg.Counter("shard.hedges").Inc()
				launch(cands[launched], true)
				pending++
			}
		case res := <-results:
			pending--
			now := time.Now()
			if res.err == nil {
				r.lat[class].record(now.Sub(start))
				res.node.brk.OnSuccess()
				if res.hedged {
					r.reg.Counter("shard.hedge_wins").Inc()
				}
				return res.resp, out, nil
			}
			if errors.Is(res.err, context.Canceled) && ctx.Err() == nil {
				// Lost the hedge race — not a node failure.
				continue
			}
			res.node.brk.OnFailure(now)
			lastErr = res.err
			if launched < len(cands) {
				out.failovers++
				r.reg.Counter("shard.failovers").Inc()
				launch(cands[launched], false)
				pending++
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard: all replicas lost: %w", errs.ErrDegraded)
	}
	return serve.Response{}, out, lastErr
}
