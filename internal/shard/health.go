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

// ClusterHealth snapshots the shard tier. The routing counters are read
// from the router's registry — the only place they are counted.
func (r *Router) ClusterHealth() ClusterHealth {
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()

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
	if r.gov != nil {
		ch.Memory = r.gov.Stats()
	}
	for _, n := range nodes {
		nh := NodeHealth{ID: n.id, Alive: n.alive.Load()}
		_, nh.BreakerOpen, nh.BreakerTrips = n.brk.Snapshot()
		if srv := n.server(); srv != nil && nh.Alive {
			nh.Serve = srv.Health()
			ch.LiveNodes++
		}
		ch.Nodes = append(ch.Nodes, nh)
	}
	return ch
}

// liveView is what both health views are built from: the live shards'
// counter snapshots added key by key, and their Health snapshots for the
// fields no counter holds.
func (r *Router) liveView() (map[string]int64, []serve.Health) {
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()

	sum := make(map[string]int64)
	var live []serve.Health
	for _, n := range nodes {
		srv := n.server()
		if srv == nil || !n.alive.Load() {
			continue
		}
		for k, v := range srv.Metrics().Counters() {
			sum[k] += v
		}
		live = append(live, srv.Health())
	}
	return sum, live
}

// Health is the single-node surface the frontend already speaks, for the
// cluster: serve's counter mapping applied once to the live shards' summed
// counters, so a counter field added to serve.Health is summed here without
// this file naming it. A dead node's server and its counts are gone, so after
// a node loss the totals are a floor. What no counter holds has one rule each:
//
//   - State degrades when any live node does; Durable is true when any
//     live node's is.
//   - QueueDepth, ConsecutiveFailures, Faults and the Recovery counts are
//     summed; Faults also carries the router's own "node-loss" count.
//   - StoreVersion and Recovery.ManifestVersion are the lowest across live
//     durable nodes: the version every node has committed.
//   - LastCheckpoint is the furthest-along node's (highest manifest version:
//     nodes checkpoint independently and share no clock).
//   - Memory is the cluster-wide governor's snapshot, zero when it is off.
//
// Cluster-only detail (failovers, hedges, partials) lives in ClusterHealth.
func (r *Router) Health() serve.Health {
	sum, live := r.liveView()
	out := serve.HealthFromCounters(sum)
	out.State = "ok"
	for _, h := range live {
		if h.State == "degraded" {
			out.State = h.State
		}
		out.QueueDepth += h.QueueDepth
		out.ConsecutiveFailures += h.ConsecutiveFailures
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
		out.Recovery.TablesHot += h.Recovery.TablesHot
		out.Recovery.BytesValidated += h.Recovery.BytesValidated
		out.Recovery.SimCycles += h.Recovery.SimCycles
		out.Recovery.WallNanos += h.Recovery.WallNanos
		if h.LastCheckpoint.Version > out.LastCheckpoint.Version {
			out.LastCheckpoint = h.LastCheckpoint
		}
	}
	if r.gov != nil {
		out.Memory = r.gov.Stats()
	}
	losses := r.reg.Counters()["shard.node_losses"]
	if out.Faults == nil && losses > 0 {
		out.Faults = make(map[string]int64)
	}
	if out.Faults != nil {
		out.Faults["node-loss"] += losses
	}
	for id, th := range out.Tenants {
		out.Tenants[id] = r.tenantView(id, th, live)
	}
	return out
}

// TenantHealth is one tenant's slice of Health, built the same way.
func (r *Router) TenantHealth(tenant string) serve.TenantHealth {
	sum, live := r.liveView()
	return r.tenantView(tenant, serve.TenantHealthFromCounters(sum, tenant), live)
}

// tenantView fills what the summed counters cannot say about a tenant.
// Latency and modeled cost are what the tenant waited for at the router
// (SubmitDist records them per request): the shards' histograms time
// per-stripe sub-requests and cannot be merged. Memory in use is summed over
// the live shards; the cap is the largest any of them carries.
func (r *Router) tenantView(tenant string, th serve.TenantHealth, live []serve.Health) serve.TenantHealth {
	th.LatencyMs = r.reg.Histogram("shard.tenant." + tenant + ".latency_ms").Stats()
	th.CyclesPerQuery = r.reg.Histogram("shard.tenant." + tenant + ".cycles_per_query").Stats()
	for _, h := range live {
		th.MemInUseBytes += h.Memory.TenantInUse[tenant]
		th.MemCapBytes = max(th.MemCapBytes, h.Memory.TenantCaps[tenant])
	}
	return th
}
