// Package cluster extends the machine model one level up the hierarchy the
// keynote says software must now understand: the network. A Cluster is a
// set of identical machines joined by a NIC-bandwidth-limited fabric, and
// the two classic distributed equi-join strategies — shuffle (repartition
// both sides) and broadcast (replicate the build side) — are implemented
// over real, node-partitioned data with the fabric priced like any other
// bandwidth tier.
package cluster

import (
	"context"
	"fmt"
	"math"

	"hwstar/internal/hw"
	"hwstar/internal/join"
)

// Cluster is a rack of identical nodes.
type Cluster struct {
	// Nodes is the machine count.
	Nodes int
	// Machine is the per-node profile (cost model for local work).
	Machine *hw.Machine
	// NetBytesPerCycle is the per-node NIC bandwidth, expressed in bytes
	// per core cycle of the node's machine so network and compute costs
	// share one unit.
	NetBytesPerCycle float64
	// NetLatencyCycles is the per-transfer fixed cost (connection setup,
	// serialization floor). Real fabrics always have one — Rack10GbE models
	// it at 50k cycles — but zero is explicitly valid: it prices an ideal
	// latency-free fabric, the limiting case experiments use to separate
	// bandwidth effects from latency effects. NaN and ±Inf are rejected.
	NetLatencyCycles float64
}

// Validate reports an error for inconsistent clusters. NetBytesPerCycle
// must be a positive finite number. NetLatencyCycles must be finite and
// non-negative; zero is the documented ideal-fabric case (no per-transfer
// floor), not an error — callers modelling a real NIC should start from
// Rack10GbE/Rack40GbE, which always carry a serialization floor.
func (c Cluster) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	if c.Machine == nil {
		return fmt.Errorf("cluster: machine profile required")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.NetBytesPerCycle <= 0 || math.IsNaN(c.NetBytesPerCycle) || math.IsInf(c.NetBytesPerCycle, 0) {
		return fmt.Errorf("cluster: NetBytesPerCycle must be positive and finite, got %v", c.NetBytesPerCycle)
	}
	if c.NetLatencyCycles < 0 || math.IsNaN(c.NetLatencyCycles) || math.IsInf(c.NetLatencyCycles, 0) {
		return fmt.Errorf("cluster: NetLatencyCycles must be finite and >= 0 (0 = ideal latency-free fabric), got %v", c.NetLatencyCycles)
	}
	return nil
}

// Rack10GbE returns an n-node cluster of 2-socket servers on a 10 GbE
// fabric (~1.25 GB/s per NIC ≈ 0.5 B/cycle at 2.4 GHz).
func Rack10GbE(n int) Cluster {
	return Cluster{
		Nodes:            n,
		Machine:          hw.Server2S(),
		NetBytesPerCycle: 0.5,
		NetLatencyCycles: 50_000,
	}
}

// Rack40GbE returns an n-node cluster with a 40 GbE fabric — the "network
// catches up with memory" scenario.
func Rack40GbE(n int) Cluster {
	c := Rack10GbE(n)
	c.NetBytesPerCycle = 2
	return c
}

// Strategy names a distributed join plan.
type Strategy string

// Strategies.
const (
	// StrategyShuffle hash-partitions both relations across nodes; each
	// node joins its partition locally. Network: ~(N-1)/N of both inputs.
	StrategyShuffle Strategy = "shuffle"
	// StrategyBroadcast replicates the build relation to every node; probes
	// never move. Network: (N-1) × build size.
	StrategyBroadcast Strategy = "broadcast"
	// StrategyAuto picks whichever moves fewer bytes.
	StrategyAuto Strategy = "auto"
)

const tupleBytes = 16

// Result is a distributed join outcome.
type Result struct {
	join.Result
	// Strategy is the plan that ran (resolved for StrategyAuto).
	Strategy Strategy
	// NetworkCycles is the fabric time of the busiest node; LocalCycles the
	// local join time of the busiest node; MakespanCycles their sum (the
	// phases barrier-separate).
	NetworkCycles  float64
	LocalCycles    float64
	MakespanCycles float64
	// BytesMoved is total traffic across the fabric.
	BytesMoved int64
}

// HashNode assigns a key to one of nodes (Fibonacci multiplicative
// hashing): the cluster simulation's shuffle and the router's distributed
// join both partition by it.
func HashNode(k int64, nodes int) int {
	h := uint64(k) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(nodes))
}

// nodeData is one node's share of a relation.
type nodeData struct {
	keys, vals []int64
}

// distribute splits a relation round-robin across nodes — the initial
// placement before any join runs (as if each node loaded its own chunk).
func distribute(keys, vals []int64, nodes int) []nodeData {
	out := make([]nodeData, nodes)
	for i := range keys {
		n := i % nodes
		out[n].keys = append(out[n].keys, keys[i])
		out[n].vals = append(out[n].vals, vals[i])
	}
	return out
}

// shuffle redistributes node-local data by key hash, returning the new
// per-node data and the bytes each node sent.
func shuffle(data []nodeData, nodes int) ([]nodeData, []int64) {
	out := make([]nodeData, nodes)
	sent := make([]int64, nodes)
	for src, nd := range data {
		for i, k := range nd.keys {
			dst := HashNode(k, nodes)
			out[dst].keys = append(out[dst].keys, k)
			out[dst].vals = append(out[dst].vals, nd.vals[i])
			if dst != src {
				sent[src] += tupleBytes
			}
		}
	}
	return out, sent
}

// PredictBytes returns the fabric traffic each strategy would move for the
// given relation sizes, used by StrategyAuto and by experiments.
func (c Cluster) PredictBytes(buildRows, probeRows int64) (shuffleBytes, broadcastBytes int64) {
	if c.Nodes <= 1 {
		return 0, 0
	}
	frac := float64(c.Nodes-1) / float64(c.Nodes)
	shuffleBytes = int64(frac * float64(buildRows+probeRows) * tupleBytes)
	broadcastBytes = int64(c.Nodes-1) * buildRows * tupleBytes
	return shuffleBytes, broadcastBytes
}

// TransferCycles prices moving bytes across the fabric when senders NICs
// transfer concurrently: the per-transfer latency floor plus the busiest
// NIC's share — approximated as an even share — at NIC bandwidth. Moving
// nothing costs nothing. Every tier that charges the fabric prices it here.
func (c Cluster) TransferCycles(bytes int64, senders int) float64 {
	if bytes <= 0 {
		return 0
	}
	return c.NetLatencyCycles + float64(bytes)/float64(senders)/c.NetBytesPerCycle
}

// Join executes the distributed equi-join over the cluster. Input data is
// initially distributed round-robin (node i holds every i-th tuple); the
// strategy decides what moves. All node-local joins are real radix joins;
// the returned matches/checksum are exact. Cancelling ctx stops the join
// between node-local phases and returns ctx.Err().
func (c Cluster) Join(ctx context.Context, in join.Input, strat Strategy) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if strat == StrategyAuto || strat == "" {
		sb, bb := c.PredictBytes(int64(len(in.BuildKeys)), int64(len(in.ProbeKeys)))
		if bb < sb {
			strat = StrategyBroadcast
		} else {
			strat = StrategyShuffle
		}
	}

	build := distribute(in.BuildKeys, in.BuildVals, c.Nodes)
	probe := distribute(in.ProbeKeys, in.ProbeVals, c.Nodes)
	res := Result{Strategy: strat}

	var localBuild, localProbe []nodeData
	sent := make([]int64, c.Nodes)
	switch strat {
	case StrategyShuffle:
		var sentB, sentP []int64
		localBuild, sentB = shuffle(build, c.Nodes)
		localProbe, sentP = shuffle(probe, c.Nodes)
		for i := range sent {
			sent[i] = sentB[i] + sentP[i]
		}
	case StrategyBroadcast:
		// Every node receives the full build side; its own share it already
		// has, the rest arrives over the fabric. Probes stay put.
		full := nodeData{keys: in.BuildKeys, vals: in.BuildVals}
		localBuild = make([]nodeData, c.Nodes)
		for i := range localBuild {
			localBuild[i] = full
			sent[i] = int64(len(in.BuildKeys)-len(build[i].keys)) * tupleBytes
		}
		localProbe = probe
	default:
		return Result{}, fmt.Errorf("cluster: unknown strategy %q", strat)
	}

	// Price the fabric phase: nodes transfer concurrently; the makespan is
	// the busiest NIC. (For broadcast, "sent" counts each node's inbound
	// replica traffic, which is the binding side on a switched fabric.)
	var maxNet float64
	for i := range sent {
		res.BytesMoved += sent[i]
		if net := c.TransferCycles(sent[i], 1); net > maxNet {
			maxNet = net
		}
	}
	res.NetworkCycles = maxNet

	// Local joins run in parallel across nodes; makespan is the slowest
	// node (skew shows up here for shuffle).
	var maxLocal float64
	for n := 0; n < c.Nodes; n++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		acct := hw.NewAccount(c.Machine, hw.DefaultContext())
		localIn := join.Input{
			BuildKeys: localBuild[n].keys, BuildVals: localBuild[n].vals,
			ProbeKeys: localProbe[n].keys, ProbeVals: localProbe[n].vals,
		}
		r, err := join.Radix(localIn, join.RadixOptions{}, c.Machine, acct)
		if err != nil {
			return Result{}, err
		}
		res.Matches += r.Matches
		res.Checksum += r.Checksum
		if acct.TotalCycles() > maxLocal {
			maxLocal = acct.TotalCycles()
		}
	}
	res.LocalCycles = maxLocal
	res.MakespanCycles = res.NetworkCycles + res.LocalCycles
	res.SimCycles = res.MakespanCycles
	return res, nil
}
