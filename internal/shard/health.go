package shard

import (
	"fmt"

	"hwstar/internal/errs"
	"hwstar/internal/serve"
)

// PartitionInfo describes one partition's placement: the contiguous row
// stripe it covers and the nodes replicating it (nodes ID … ID+R−1, in the
// order the fan-out draws from). Chaos tooling and experiments use it to
// stage targeted failures — killing every replica of one range is how a
// total-loss partial result is forced deterministically.
type PartitionInfo struct {
	ID       int
	Rows     int
	Replicas []int
}

// Partitions returns the placement of name's partitions in partition order.
func (r *Router) Partitions(name string) ([]PartitionInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	meta, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("shard: unknown table %q: %w", name, errs.ErrInvalidInput)
	}
	out := make([]PartitionInfo, len(meta.parts))
	for i, p := range meta.parts {
		out[i] = PartitionInfo{ID: p.id, Rows: p.rows, Replicas: append([]int(nil), p.replicas...)}
	}
	return out, nil
}

// NodeHealth is one shard's slice of the cluster picture.
type NodeHealth struct {
	ID    int
	Alive bool
	// Serve is the node's own health snapshot (zero when the node is
	// dead — its server is gone).
	Serve serve.Health
}

// ClusterHealth is the router's full observability surface: per-node
// breakdowns plus the routing counters that only exist at this tier.
type ClusterHealth struct {
	Shards, Replicas, Partitions int
	LiveNodes                    int

	// Routing counters: replica failovers, hedged dispatches and how many
	// hedges won, partial-result responses, node losses, and stripes
	// re-replicated during recovery.
	Failovers, Hedges, HedgeWins int64
	Partials                     int64
	NodeLosses, Rereplications   int64

	Nodes []NodeHealth
}

// ClusterHealth snapshots the shard tier. The routing counters are read
// from the router's registry — the only place they are counted.
func (r *Router) ClusterHealth() ClusterHealth {
	c := r.reg.Counters()
	ch := ClusterHealth{
		Shards:         r.opts.Shards,
		Replicas:       r.opts.Replicas,
		Partitions:     r.opts.Shards,
		Failovers:      c["shard.failovers"],
		Hedges:         c["shard.hedges"],
		HedgeWins:      c["shard.hedge_wins"],
		Partials:       c["shard.partials"],
		NodeLosses:     c["shard.node_losses"],
		Rereplications: c["shard.rereplications"],
	}
	for _, n := range r.nodes {
		srv := n.srv.Load()
		nh := NodeHealth{ID: n.id, Alive: srv != nil}
		if nh.Alive {
			nh.Serve = srv.Health()
			ch.LiveNodes++
		}
		ch.Nodes = append(ch.Nodes, nh)
	}
	return ch
}

// Health is the single-node surface the frontend already speaks, for the
// cluster: serve's counter mapping applied once to the live shards' summed
// counters, so a counter field added to serve.Health is summed here without
// this file naming it. A dead node's server and its counts are gone, so after
// a node loss the totals are a floor. What no counter holds has one rule each:
//
//   - State is "degraded" while any node is dead; Durable is true when any
//     live node's is.
//   - QueueDepth, Faults, Memory and the Recovery counts are summed, Memory
//     field by field (mem.Stats.Add); Faults also carries the router's own
//     "node-loss" count.
//   - StoreVersion and Recovery.ManifestVersion are the lowest across live
//     durable nodes: the version every node has committed.
//   - LastCheckpoint is the furthest-along node's (highest manifest version:
//     nodes checkpoint independently and share no clock).
//
// Cluster-only detail (failovers, hedges, partials) lives in ClusterHealth.
func (r *Router) Health() serve.Health {
	sum := make(map[string]int64)
	var live []serve.Health
	for _, n := range r.nodes {
		srv := n.srv.Load()
		if srv == nil {
			continue
		}
		for k, v := range srv.Metrics().Counters() {
			sum[k] += v
		}
		live = append(live, srv.Health())
	}
	out := serve.HealthFromCounters(sum)
	out.State = "ok"
	if len(live) < len(r.nodes) {
		out.State = "degraded"
	}
	for _, h := range live {
		out.Memory.Add(h.Memory)
		out.QueueDepth += h.QueueDepth
		if h.Faults != nil && out.Faults == nil {
			out.Faults = make(map[string]int64)
		}
		for k, v := range h.Faults {
			out.Faults[k] += v
		}
		if !h.Durable {
			continue
		}
		if !out.Durable {
			out.Durable, out.StoreVersion, out.Recovery.ManifestVersion = true, h.StoreVersion, h.Recovery.ManifestVersion
		}
		out.StoreVersion = min(out.StoreVersion, h.StoreVersion)
		out.Recovery.ManifestVersion = min(out.Recovery.ManifestVersion, h.Recovery.ManifestVersion)
		out.Recovery.Fallbacks += h.Recovery.Fallbacks
		out.Recovery.CorruptSegments += h.Recovery.CorruptSegments
		out.Recovery.TablesTotal += h.Recovery.TablesTotal
		out.Recovery.BytesValidated += h.Recovery.BytesValidated
		out.Recovery.SimCycles += h.Recovery.SimCycles
		out.Recovery.WallNanos += h.Recovery.WallNanos
		if h.LastCheckpoint.Version > out.LastCheckpoint.Version {
			out.LastCheckpoint = h.LastCheckpoint
		}
	}
	losses := r.reg.Counters()["shard.node_losses"]
	if out.Faults == nil && losses > 0 {
		out.Faults = make(map[string]int64)
	}
	if out.Faults != nil {
		out.Faults["node-loss"] += losses
	}
	return out
}
