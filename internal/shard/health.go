package shard

import (
	"fmt"

	"hwstar/internal/errs"
	"hwstar/internal/mem"
	"hwstar/internal/serve"
)

// PartitionInfo describes one partition's placement: the contiguous row
// stripe it covers and the nodes replicating it (primary first). Chaos
// tooling and experiments use it to stage targeted failures — killing
// every replica of one range is how a total-loss partial result is forced
// deterministically.
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
	// BreakerOpen and BreakerTrips describe the router-side breaker
	// guarding the route to this node (the node's own breaker is inside
	// Serve).
	BreakerOpen  bool
	BreakerTrips int64
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

	// Memory is the cluster-wide governor's snapshot (zero when the
	// router-level budget is off).
	Memory mem.Stats

	Nodes []NodeHealth
}

// ClusterHealth snapshots the shard tier.
func (r *Router) ClusterHealth() ClusterHealth {
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()

	ch := ClusterHealth{
		Shards:         r.opts.Shards,
		Replicas:       r.opts.Replicas,
		Partitions:     r.opts.Partitions,
		Failovers:      r.failovers.Load(),
		Hedges:         r.hedges.Load(),
		HedgeWins:      r.hedgeWins.Load(),
		Partials:       r.partials.Load(),
		NodeLosses:     r.nodeLosses.Load(),
		Rereplications: r.rereplications.Load(),
	}
	if r.gov != nil {
		ch.Memory = r.gov.Stats()
	}
	for _, n := range nodes {
		nh := NodeHealth{ID: n.id, Alive: n.alive.Load()}
		_, nh.BreakerOpen, nh.BreakerTrips = n.brk.Snapshot()
		if srv := n.server(); srv != nil && nh.Alive {
			nh.Serve = srv.Health()
		}
		ch.Nodes = append(ch.Nodes, nh)
	}
	ch.LiveNodes = 0
	for _, nh := range ch.Nodes {
		if nh.Alive {
			ch.LiveNodes++
		}
	}
	return ch
}

// Health merges the live shards' health into one serve.Health — the
// single-node surface the frontend already speaks, summed across the
// cluster. State degrades when any live node is degraded; the cluster-
// wide governor's snapshot replaces the per-shard one when armed.
// Cluster-only detail (failovers, hedges, partials) lives in
// ClusterHealth.
func (r *Router) Health() serve.Health {
	ch := r.ClusterHealth()
	var out serve.Health
	out.State = "ok"
	for _, nh := range ch.Nodes {
		if !nh.Alive {
			continue
		}
		h := nh.Serve
		if h.State == "degraded" || h.State == "recovering" {
			out.State = h.State
		}
		out.QueueDepth += h.QueueDepth
		out.ConsecutiveFailures += h.ConsecutiveFailures
		out.Admitted += h.Admitted
		out.Completed += h.Completed
		out.Failed += h.Failed
		out.Rejected += h.Rejected
		out.Shed += h.Shed
		out.DeadlineExceeded += h.DeadlineExceeded
		out.Retries += h.Retries
		out.RetryExhausted += h.RetryExhausted
		out.BreakerTrips += h.BreakerTrips
		out.Redispatched += h.Redispatched
		out.PanicsRecovered += h.PanicsRecovered
		out.StragglersRetired += h.StragglersRetired
		out.CoresLost += h.CoresLost
		out.DegradedScans += h.DegradedScans
		out.MemShed += h.MemShed
		out.Spills += h.Spills
		out.SpillBytes += h.SpillBytes
		out.OOMKilled += h.OOMKilled
		out.Checkpoints += h.Checkpoints
		out.CheckpointFailures += h.CheckpointFailures
		out.ColdLoads += h.ColdLoads
		out.ReplayedTables += h.ReplayedTables
		out.RecoveringShed += h.RecoveringShed
		out.Durable = out.Durable || h.Durable
		if h.Faults != nil && out.Faults == nil {
			out.Faults = make(map[string]int64)
		}
		for k, v := range h.Faults {
			out.Faults[k] += v
		}
		for id, th := range h.Tenants {
			if out.Tenants == nil {
				out.Tenants = make(map[string]serve.TenantHealth)
			}
			agg := out.Tenants[id]
			agg.Admitted += th.Admitted
			agg.Completed += th.Completed
			agg.Failed += th.Failed
			agg.Rejected += th.Rejected
			agg.Shed += th.Shed
			agg.MemShed += th.MemShed
			agg.DeadlineExceeded += th.DeadlineExceeded
			agg.Invalid += th.Invalid
			agg.Spills += th.Spills
			agg.SpillBytes += th.SpillBytes
			out.Tenants[id] = agg
		}
	}
	if r.gov != nil {
		out.Memory = ch.Memory
	}
	if out.Faults == nil && ch.NodeLosses > 0 {
		out.Faults = make(map[string]int64)
	}
	if out.Faults != nil {
		out.Faults["node-loss"] += ch.NodeLosses
	}
	return out
}

// TenantHealth merges one tenant's counters across the live shards.
func (r *Router) TenantHealth(tenant string) serve.TenantHealth {
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()

	var out serve.TenantHealth
	for _, n := range nodes {
		srv := n.server()
		if srv == nil || !n.alive.Load() {
			continue
		}
		th := srv.TenantHealth(tenant)
		out.Admitted += th.Admitted
		out.Completed += th.Completed
		out.Failed += th.Failed
		out.Rejected += th.Rejected
		out.Shed += th.Shed
		out.MemShed += th.MemShed
		out.DeadlineExceeded += th.DeadlineExceeded
		out.Invalid += th.Invalid
		out.Spills += th.Spills
		out.SpillBytes += th.SpillBytes
		if th.MemInUseBytes > 0 {
			out.MemInUseBytes += th.MemInUseBytes
		}
		if th.MemCapBytes > out.MemCapBytes {
			out.MemCapBytes = th.MemCapBytes
		}
	}
	return out
}
