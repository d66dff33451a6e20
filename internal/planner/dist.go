package planner

import (
	"hwstar/internal/cluster"
	"hwstar/internal/hw"
	"hwstar/internal/join"
)

// DistPlan is a costed distributed-join decision: which movement strategy
// the fabric and the per-node machine model together favour.
type DistPlan struct {
	Strategy cluster.Strategy
	// Predicted is the winning estimate in cycles; All holds every
	// strategy's predicted makespan (network + slowest local join).
	Predicted float64
	All       map[cluster.Strategy]float64
	// BytesMoved and NetworkCycles are the winning strategy's fabric
	// traffic and its price — the part of Predicted the executor charges.
	BytesMoved    int64
	NetworkCycles float64
}

// ChooseDistStrategy prices shuffle vs broadcast for a distributed
// equi-join on cluster c: the fabric phase via c.TransferCycles (bytes
// from cluster.PredictBytes spread across the nodes' concurrent
// transfers) plus the slowest node's local radix join via the same
// estimator ChooseJoin uses. This is the keynote's planner obligation
// extended one tier up — the network priced like any other bandwidth
// level, not a heuristic row-count cutoff.
func ChooseDistStrategy(c cluster.Cluster, s join.Stats, ctx hw.ExecContext) DistPlan {
	nodes := c.Nodes
	if nodes < 1 {
		nodes = 1
	}
	shufBytes, bcastBytes := c.PredictBytes(s.BuildRows, s.ProbeRows)

	perNode := func(rows int64) int64 {
		n := rows / int64(nodes)
		if n < 1 && rows > 0 {
			n = 1
		}
		return n
	}

	shufLocal := join.EstimateRadix(c.Machine, join.Stats{
		BuildRows: perNode(s.BuildRows), ProbeRows: perNode(s.ProbeRows), MissFrac: s.MissFrac,
	}, ctx)
	bcastLocal := join.EstimateRadix(c.Machine, join.Stats{
		BuildRows: s.BuildRows, ProbeRows: perNode(s.ProbeRows), MissFrac: s.MissFrac,
	}, ctx)

	shufNet, bcastNet := c.TransferCycles(shufBytes, nodes), c.TransferCycles(bcastBytes, nodes)
	all := map[cluster.Strategy]float64{
		cluster.StrategyShuffle:   shufNet + shufLocal,
		cluster.StrategyBroadcast: bcastNet + bcastLocal,
	}
	plan := DistPlan{Strategy: cluster.StrategyShuffle, All: all, BytesMoved: shufBytes, NetworkCycles: shufNet}
	if all[cluster.StrategyBroadcast] < all[cluster.StrategyShuffle] {
		plan.Strategy, plan.BytesMoved, plan.NetworkCycles = cluster.StrategyBroadcast, bcastBytes, bcastNet
	}
	plan.Predicted = all[plan.Strategy]
	return plan
}
