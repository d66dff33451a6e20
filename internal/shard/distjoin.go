package shard

import (
	"context"
	"fmt"

	"hwstar/internal/cluster"
	"hwstar/internal/errs"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/mem"
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
	live := r.LiveNodes()
	if len(live) == 0 {
		return Response{}, fmt.Errorf("shard: no live nodes: %w", errs.ErrDegraded)
	}

	clu := r.clu
	clu.Nodes = len(live)
	plan := planner.ChooseDistStrategy(clu, planner.StatsOf(in, 0), hw.DefaultContext())
	if len(live) == 1 {
		// One node left: no movement, run the whole join there.
		resp, err := r.routeOne(ctx, req, live)
		resp.Strategy = plan.Strategy
		return resp, err
	}

	// Every live node is a candidate for every sub-join: its data is inline,
	// so anyone can run it. Sub i is part i, and the fan-out rotates its order
	// by its part, so the sub-joins start on distinct nodes.
	f := newFanout(len(live))
	defer f.release()
	for _, part := range splitJoin(in, len(live), plan.Strategy, req.Lease) {
		if len(part.BuildKeys) > 0 || len(part.ProbeKeys) > 0 {
			f.add(req, len(f.subs), live).Join = part
		}
	}
	r.run(ctx, f)

	var out Response
	out.Strategy = plan.Strategy
	out.BytesMoved = plan.BytesMoved
	out.NetworkCycles = plan.NetworkCycles
	var maxLocal float64
	for i := range f.subs {
		s := &f.subs[i]
		out.Failovers += s.failovers
		out.Hedged = out.Hedged || s.hedged
		if s.err != nil {
			// The sub-join failed on every live node; the join cannot be
			// completed exactly, and joins never return partials.
			return out, s.err
		}
		out.Matches += s.resp.Matches
		out.Checksum += s.resp.Checksum
		out.Spilled = out.Spilled || s.resp.Spilled
		out.SpillBytes += s.resp.SpillBytes
		if s.resp.SimCycles > maxLocal {
			maxLocal = s.resp.SimCycles
		}
	}
	out.SimCycles = maxLocal + out.NetworkCycles
	out.CoveredFraction = 1
	return out, nil
}

// splitJoin partitions a join input for n-way distributed execution.
// Shuffle: both sides hash-partitioned by key, so matching keys land on
// the same sub-join, into columns taken from lease. Broadcast: every
// sub-join sees the full build side and a contiguous probe stripe.
func splitJoin(in join.Input, n int, strat cluster.Strategy, lease *mem.Lease) []join.Input {
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
	bk, bv := hashSplit(in.BuildKeys, in.BuildVals, n, lease)
	pk, pv := hashSplit(in.ProbeKeys, in.ProbeVals, n, lease)
	for d := range subs {
		subs[d] = join.Input{BuildKeys: bk[d], BuildVals: bv[d], ProbeKeys: pk[d], ProbeVals: pv[d]}
	}
	return subs
}

// hashSplit hash-partitions a key column and its value column n ways, in
// input order. One counting pass sizes every partition, so each column is
// one exactly-sized leased array, all of it written by the second pass,
// carved into capacity-capped pieces rather than n slices grown by append.
func hashSplit(keys, vals []int64, n int, lease *mem.Lease) (pkeys, pvals [][]int64) {
	next := make([]int, n) // a partition's size, then its write cursor
	for _, k := range keys {
		next[cluster.HashNode(k, n)]++
	}
	allKeys := lease.Column(len(keys))
	allVals := lease.Column(len(keys))
	parts := make([][]int64, 2*n)
	pkeys, pvals = parts[:n:n], parts[n:]
	off := 0
	for d, size := range next {
		pkeys[d] = allKeys[off : off+size : off+size]
		pvals[d] = allVals[off : off+size : off+size]
		next[d] = off
		off += size
	}
	for i, k := range keys {
		d := cluster.HashNode(k, n)
		allKeys[next[d]] = k
		allVals[next[d]] = vals[i]
		next[d]++
	}
	return pkeys, pvals
}
