package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"hwstar/internal/errs"
	"hwstar/internal/serve"
)

// hedgeOutcome is the routing story of one replicated dispatch.
type hedgeOutcome struct {
	hedged    bool
	failovers int
}

// minHedgeDelay floors the cost-model-derived hedge deadline: below it the
// hedge would race scheduling noise, not stragglers.
const minHedgeDelay = 50 * time.Microsecond

// hedgeMultiplier stretches the derived deadline: hedge when a replica is
// 3× slower than the model says.
const hedgeMultiplier = 3

// hedgeDelayFor derives the hedged-dispatch deadline for an operation the
// cost model prices at estCycles: the cycles converted to wall time
// through the router's observed ns-per-cycle calibration, stretched by
// hedgeMultiplier. The hedgeDelay test seam overrides the derivation.
func (r *Router) hedgeDelayFor(estCycles float64) time.Duration {
	if r.opts.hedgeDelay > 0 {
		return r.opts.hedgeDelay
	}
	ns := r.wallNsPerCycle()
	d := time.Duration(estCycles * ns * hedgeMultiplier)
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d
}

// ewmaAlpha weights new wall-per-cycle observations; ~1/8 smooths
// scheduling noise while tracking real drift within a few tens of
// requests.
const ewmaAlpha = 0.125

// defaultNsPerCycle seeds the calibration before the first observation:
// simulated execution is far cheaper than the cycles it models, so start
// small and let the EWMA find the real ratio.
const defaultNsPerCycle = 0.01

func (r *Router) wallNsPerCycle() float64 {
	if bits := r.nsPerCycle.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return defaultNsPerCycle
}

// observeWall feeds one completed request's wall-time-per-modeled-cycle
// ratio into the EWMA calibration.
func (r *Router) observeWall(wall time.Duration, simCycles float64) {
	if simCycles <= 0 || wall <= 0 {
		return
	}
	obs := float64(wall.Nanoseconds()) / simCycles
	for {
		oldBits := r.nsPerCycle.Load()
		old := defaultNsPerCycle
		if oldBits != 0 {
			old = math.Float64frombits(oldBits)
		}
		next := old + ewmaAlpha*(obs-old)
		if r.nsPerCycle.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
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
//     within the cost-model-derived hedge deadline, the same request is
//     hedged to the next candidate and whichever answers first wins, the
//     loser's context cancelled;
//   - a failed attempt (node died, shed, errored) fails over to the next
//     unused candidate immediately;
//   - only when every candidate has failed does the dispatch fail.
//
// The results channel is buffered to the attempt count and every attempt
// goroutine sends exactly one result, so no goroutine outlives the
// dispatch uncollected — the hedged-dispatch cancel path is leak-free (a
// test pins this).
func (r *Router) dispatch(ctx context.Context, replicas []int, req serve.Request, estCycles float64) (serve.Response, hedgeOutcome, error) {
	cands := r.candidates(replicas)
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
	hedgeTimer := time.NewTimer(r.hedgeDelayFor(estCycles))
	defer hedgeTimer.Stop()

	var out hedgeOutcome
	var lastErr error
	pending := 1
	for pending > 0 {
		select {
		case <-ctx.Done():
			return serve.Response{}, out, fmt.Errorf("shard: dispatch cancelled: %w", ctx.Err())
		case <-hedgeTimer.C:
			// Primary exceeded the model-derived deadline: hedge to the
			// next unused candidate, if any.
			if launched < len(cands) {
				out.hedged = true
				r.reg.Counter("shard.hedges").Inc()
				launch(cands[launched], true)
				pending++
			}
		case res := <-results:
			pending--
			if res.err == nil {
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
			res.node.brk.OnFailure(time.Now())
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
