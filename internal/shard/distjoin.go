package shard

import (
	"context"
	"fmt"
	"sync"

	"hwstar/internal/cluster"
	"hwstar/internal/errs"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/planner"
	"hwstar/internal/serve"
)

// distJoin executes a scatter-gather equi-join across the live shards.
// The movement strategy — shuffle (hash-partition both sides) vs
// broadcast (replicate the build side, stripe the probes) — comes from
// the planner with the fabric priced through cluster.Cluster, never a
// row-count heuristic. Join inputs travel inline with the request, so a
// failed sub-join fails over to any other live node and the merged answer
// is always exact: joins degrade by slowing down, not by going partial.
func (r *Router) distJoin(ctx context.Context, req serve.Request) (Response, error) {
	in := req.Join
	if err := in.Validate(); err != nil {
		return Response{}, err
	}
	if resv, err := r.reserve(req.Tenant); err != nil {
		return Response{}, err
	} else if resv != nil {
		defer resv.Release()
	}

	live := r.LiveNodes()
	if len(live) == 0 {
		return Response{}, fmt.Errorf("shard: no live nodes: %w", errs.ErrDegraded)
	}

	clu := r.clu
	clu.Nodes = len(live)
	plan := planner.ChooseDistStrategy(clu, planner.StatsOf(in, 0), hw.DefaultContext())
	if len(live) == 1 {
		// One node left: no movement, run the whole join there.
		resp, hov, err := r.dispatch(ctx, live, req)
		return Response{Response: resp, Strategy: plan.Strategy, Hedged: hov.hedged, Failovers: hov.failovers}, err
	}

	subs := splitJoin(in, len(live), plan.Strategy)

	type subOut struct {
		resp serve.Response
		err  error
		hov  hedgeOutcome
	}
	outs := make([]subOut, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		if len(subs[i].BuildKeys) == 0 && len(subs[i].ProbeKeys) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sreq := req
			sreq.Join = subs[i]
			// Preferred node first, every other live node as failover —
			// the sub-join's data is inline, so anyone can run it.
			order := rotated(live, i)
			resp, hov, err := r.dispatch(ctx, order, sreq)
			outs[i] = subOut{resp: resp, err: err, hov: hov}
		}(i)
	}
	wg.Wait()

	var out Response
	out.Strategy = plan.Strategy
	out.BytesMoved = plan.BytesMoved
	out.NetworkCycles = plan.NetworkCycles
	var maxLocal float64
	for _, o := range outs {
		out.Failovers += o.hov.failovers
		out.Hedged = out.Hedged || o.hov.hedged
		if o.err != nil {
			// dispatch already exhausted every live node; the join cannot
			// be completed exactly, and joins never return partials.
			return out, o.err
		}
		out.Matches += o.resp.Matches
		out.Checksum += o.resp.Checksum
		out.Spilled = out.Spilled || o.resp.Spilled
		out.SpillBytes += o.resp.SpillBytes
		if o.resp.SimCycles > maxLocal {
			maxLocal = o.resp.SimCycles
		}
	}
	out.SimCycles = maxLocal + out.NetworkCycles
	out.CoveredFraction = 1
	return out, nil
}

// splitJoin partitions a join input for n-way distributed execution.
// Shuffle: both sides hash-partitioned by key, so matching keys land on
// the same sub-join. Broadcast: every sub-join sees the full build side
// and a contiguous probe stripe.
func splitJoin(in join.Input, n int, strat cluster.Strategy) []join.Input {
	subs := make([]join.Input, n)
	if strat == cluster.StrategyBroadcast {
		for i := range subs {
			lo := len(in.ProbeKeys) * i / n
			hi := len(in.ProbeKeys) * (i + 1) / n
			subs[i] = join.Input{
				BuildKeys: in.BuildKeys, BuildVals: in.BuildVals,
				ProbeKeys: in.ProbeKeys[lo:hi], ProbeVals: in.ProbeVals[lo:hi],
			}
		}
		return subs
	}
	bk, bv := hashSplit(in.BuildKeys, in.BuildVals, n)
	pk, pv := hashSplit(in.ProbeKeys, in.ProbeVals, n)
	for d := range subs {
		subs[d] = join.Input{BuildKeys: bk[d], BuildVals: bv[d], ProbeKeys: pk[d], ProbeVals: pv[d]}
	}
	return subs
}

// hashSplit hash-partitions a key column and its value column n ways, in
// input order. One counting pass sizes every partition, so each column is
// one exactly-sized backing array carved into capacity-capped pieces rather
// than n slices grown by append.
func hashSplit(keys, vals []int64, n int) (pkeys, pvals [][]int64) {
	next := make([]int, n) // a partition's size, then its write cursor
	for _, k := range keys {
		next[hashPart(k, n)]++
	}
	allKeys := make([]int64, len(keys))
	allVals := make([]int64, len(keys))
	pkeys, pvals = make([][]int64, n), make([][]int64, n)
	off := 0
	for d, size := range next {
		pkeys[d] = allKeys[off : off+size : off+size]
		pvals[d] = allVals[off : off+size : off+size]
		next[d] = off
		off += size
	}
	for i, k := range keys {
		d := hashPart(k, n)
		allKeys[next[d]] = k
		allVals[next[d]] = vals[i]
		next[d]++
	}
	return pkeys, pvals
}

// hashPart assigns a join key to a sub-join, mirroring the cluster
// simulation's node hash (Fibonacci multiplicative hashing).
func hashPart(k int64, n int) int {
	h := uint64(k) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(n))
}

// rotated returns ids rotated so ids[i%len] leads — the distributed
// join's preferred-node ordering with everyone else as failover.
func rotated(ids []int, i int) []int {
	out := make([]int, len(ids))
	for j := range ids {
		out[j] = ids[(i+j)%len(ids)]
	}
	return out
}
