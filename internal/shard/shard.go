// Package shard is the serving tier lifted one level up the hardware
// hierarchy: N serve.Server shards — each a full single-node engine with
// its own scheduler, memory governor, breaker, and durable store — behind
// a router that owns placement, replication, and the fabric. The keynote's
// argument ("software must understand the hardware it runs on") applied at
// rack scale means the router prices the network like any other bandwidth
// tier: distributed joins choose shuffle-vs-broadcast through the planner
// with the fabric costed via cluster.Cluster, scatter-gather scans charge
// the aggregation hop. The hedged-dispatch deadline is measured, not
// modeled: the p95 of the router's own recent dispatch times per op class.
//
// Robustness mechanisms mirror the single-node ones, one level up:
//
//   - fault.ClassNodeLoss kills a whole shard the way core loss kills a
//     worker; the router fails over to surviving replicas;
//   - each node carries a router-side circuit breaker (the node's own
//     breaker guards its internals; this one guards the route to it);
//   - hedged dispatch sends a late request to a second replica and
//     cancels the loser, bounding the tail the way straggler retirement
//     bounds a slow core;
//   - when a key range loses every replica, scans degrade to typed
//     partial results (errs.ErrPartialResult + CoveredFraction) instead
//     of failing or — worse — silently returning a wrong total;
//   - recovery re-replicates a revived node's partitions from a surviving
//     replica's durable store under the governed "_rereplicate" tenant,
//     the way checkpoints run under "_checkpoint";
//   - cluster-wide admission (Shards × 256 requests in flight) and a
//     cluster-wide memory budget federate the per-shard governors: one
//     router-level gate in front of N per-node gates.
package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hwstar/internal/breaker"
	"hwstar/internal/cluster"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/metrics"
	"hwstar/internal/serve"
	"hwstar/internal/store"
)

// Options configures a Router.
type Options struct {
	// Shards is the node count N. Default 4.
	Shards int
	// Replicas is the replication factor R: every partition is registered
	// on R distinct nodes. Clamped to Shards. Default 2. A table is split
	// into Shards partitions.
	Replicas int

	// Shard is the template for every shard's serve.Options. Store is
	// overridden per node from Stores; everything else is shared.
	Shard serve.Options

	// Stores, when non-nil, must hold one durable store per shard
	// (len == Shards). They make recovery real: a revived node
	// re-replicates its partitions from a surviving replica's store.
	// Without stores a revived node comes back empty and its ranges stay
	// partial until re-registered.
	Stores []*store.Store

	// Faults drives router-level fault draws: ChaosTick asks it LoseNode
	// per live node. Nil injects nothing.
	Faults *fault.Injector

	// Memory is the cluster-wide byte budget federated above the per-shard
	// governors. Distributed joins and group-sums reserve their working
	// set here before scattering; re-replication reserves under the
	// "_rereplicate" tenant. The zero value disables the router-level
	// budget (per-shard governors still apply).
	Memory mem.Config

	// hedgeDelay and maxInflight are test seams. hedgeDelay, when positive,
	// replaces the measured per-op-class hedge deadline with a fixed one, so
	// tests force (time.Nanosecond) or forbid (time.Hour) hedging
	// deterministically. maxInflight, when positive, replaces the Shards ×
	// 256 cluster-wide admission bound, so a test can fill it with one
	// request.
	hedgeDelay  time.Duration
	maxInflight int
}

// A node's router-side breaker opens after routeBreakerThreshold
// consecutive route failures; after routeBreakerCooldown one request probes
// it half-open. The breaker only reorders candidates — an open-breaker node
// is still tried when it is the last replica standing.
const (
	routeBreakerThreshold = 3
	routeBreakerCooldown  = 10 * time.Millisecond
)

func (o *Options) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > o.Shards {
		o.Replicas = o.Shards
	}
	if o.maxInflight <= 0 {
		o.maxInflight = o.Shards * 256
	}
}

// Response is a distributed execution outcome: the merged serve.Response
// plus the routing story behind it.
type Response struct {
	serve.Response

	// Strategy is the distributed join plan that ran (joins only).
	Strategy cluster.Strategy
	// NetworkCycles is the modeled fabric cost folded into SimCycles;
	// BytesMoved the fabric traffic behind it.
	NetworkCycles float64
	BytesMoved    int64
	// Hedged reports that at least one partition dispatch hedged to a
	// second replica; Failovers counts replica failovers this request.
	Hedged    bool
	Failovers int
}

// node is one shard: a serve.Server, its durable store, liveness, and the
// router-side breaker guarding the route to it.
type node struct {
	id    int
	st    *store.Store
	brk   *breaker.Breaker
	alive atomic.Bool

	mu  sync.RWMutex
	srv *serve.Server
}

func (n *node) server() *serve.Server {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.srv
}

// partition is one contiguous row stripe of a registered table, placed on
// a fixed replica set. derived is the per-shard table name the stripe is
// registered under ("orders@3" for partition 3 of "orders").
type partition struct {
	id       int
	derived  string
	rows     int
	replicas []int // node ids, ring order, primary first
}

type tableMeta struct {
	name      string
	totalRows int
	parts     []*partition
}

// Router places tables across shards and routes requests with failover,
// hedging, and graceful partial degradation. It satisfies the same
// submission surface as serve.Server, so the frontend serves a cluster
// the same way it serves one node.
type Router struct {
	opts    Options
	machine *hw.Machine
	clu     cluster.Cluster
	ring    *ring
	gov     *mem.Governor // nil when Options.Memory is zero
	reg     *metrics.Registry

	inflight chan struct{}

	mu     sync.RWMutex
	nodes  []*node
	tables map[string]*tableMeta
	closed bool

	// reapWG tracks background teardown of killed nodes' servers.
	reapWG sync.WaitGroup

	// rotor spreads primary picks across replicas.
	rotor atomic.Uint64

	// lat is each op class's recent dispatch times, for the hedge deadline.
	lat [opClasses]latencyClass
}

// New builds the shard tier: opts.Shards serve.Servers on machine m behind
// a consistent-hash router. Every shard is constructed from the
// opts.Shard template (with its own store when opts.Stores is set) and
// serves that store's tables by the time New returns — or the whole
// constructor fails and tears down. The context is unused; the parameter
// stays because the frozen benchmark (cmd/hwperf) passes one.
func New(_ context.Context, m *hw.Machine, opts Options) (*Router, error) {
	if m == nil {
		return nil, fmt.Errorf("shard: %w", errs.ErrNilMachine)
	}
	opts.setDefaults()
	if opts.Stores != nil && len(opts.Stores) != opts.Shards {
		return nil, fmt.Errorf("shard: %d stores for %d shards: %w", len(opts.Stores), opts.Shards, errs.ErrInvalidInput)
	}
	// The fabric between shards is a 10 GbE rack of the shard machine.
	clu := cluster.Rack10GbE(opts.Shards)
	clu.Machine = m
	if err := clu.Validate(); err != nil {
		return nil, err
	}

	r := &Router{
		opts:     opts,
		machine:  m,
		clu:      clu,
		ring:     newRing(opts.Shards),
		reg:      metrics.NewRegistry(),
		inflight: make(chan struct{}, opts.maxInflight),
		tables:   make(map[string]*tableMeta),
	}
	if opts.Memory.BudgetBytes > 0 {
		r.gov = mem.NewGovernor(opts.Memory)
	}
	for i := 0; i < opts.Shards; i++ {
		n := &node{id: i, brk: breaker.New(routeBreakerThreshold, routeBreakerCooldown)}
		if opts.Stores != nil {
			n.st = opts.Stores[i]
		}
		srv, err := r.buildServer(n)
		if err != nil {
			for _, prev := range r.nodes {
				prev.server().Close()
			}
			return nil, fmt.Errorf("shard: node %d: %w", i, err)
		}
		n.srv = srv
		n.alive.Store(true)
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

// buildServer constructs one shard's serve.Server from the template.
func (r *Router) buildServer(n *node) (*serve.Server, error) {
	so := r.opts.Shard
	so.Store = n.st
	return serve.New(r.machine, so)
}

// Close drains every live shard and releases router state. Safe to call
// once; requests submitted after Close shed with errs.ErrClosed.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	nodes := r.nodes
	r.mu.Unlock()

	var first error
	for _, n := range nodes {
		if srv := n.server(); srv != nil {
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	r.reapWG.Wait()
	return first
}

// Register splits the relation into Shards contiguous row stripes, encodes
// each stripe once, and registers its blocks — immutable, so shared rather
// than copied — on the stripe's ring-assigned Replicas nodes. Placement is
// stable across restarts (it hashes names, not load), so a re-registered
// table lands on the same shards its durable stripes live on.
func (r *Router) Register(name string, cols [][]int64) error {
	if len(cols) == 0 || len(cols[0]) == 0 {
		return fmt.Errorf("shard: register %q: empty relation: %w", name, errs.ErrInvalidInput)
	}
	rows := len(cols[0])
	for _, c := range cols {
		if len(c) != rows {
			return fmt.Errorf("shard: register %q: ragged columns: %w", name, errs.ErrInvalidInput)
		}
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("shard: register %q: %w", name, errs.ErrClosed)
	}
	nodes := r.nodes
	r.mu.Unlock()

	nparts := r.opts.Shards
	if nparts > rows {
		nparts = rows
	}
	meta := &tableMeta{name: name, totalRows: rows}
	stripe := make([][]int64, len(cols))
	for p := 0; p < nparts; p++ {
		lo := rows * p / nparts
		hi := rows * (p + 1) / nparts
		for c := range cols {
			stripe[c] = cols[c][lo:hi]
		}
		part := &partition{
			id:       p,
			derived:  name + "@" + strconv.Itoa(p),
			rows:     hi - lo,
			replicas: r.ring.lookup(name+"/"+strconv.Itoa(p), r.opts.Replicas),
		}
		enc, err := store.TableFromCols(part.derived, stripe)
		if err != nil {
			return fmt.Errorf("shard: register %q partition %d: %w", name, p, err)
		}
		for _, nid := range part.replicas {
			n := nodes[nid]
			if !n.alive.Load() {
				// A dead replica misses the stripe; re-replication
				// restores it when the node revives.
				continue
			}
			if err := n.server().RegisterEncoded(enc); err != nil {
				return fmt.Errorf("shard: register %q partition %d on node %d: %w", name, p, nid, err)
			}
		}
		meta.parts = append(meta.parts, part)
	}

	r.mu.Lock()
	r.tables[name] = meta
	r.mu.Unlock()
	return nil
}

// Submit routes one request through the shard tier and merges the result
// into a single serve.Response — the same surface a single node offers, so
// the frontend is cluster-oblivious. Partial scans return both a usable
// Response (Partial set, exact over CoveredFraction) and an error wrapping
// errs.ErrPartialResult.
func (r *Router) Submit(ctx context.Context, req serve.Request) (serve.Response, error) {
	resp, err := r.SubmitDist(ctx, req)
	return resp.Response, err
}

// SubmitDist is Submit with the distributed execution detail (strategy,
// fabric cost, hedging/failover story) preserved.
func (r *Router) SubmitDist(ctx context.Context, req serve.Request) (Response, error) {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return Response{}, fmt.Errorf("shard: %w", errs.ErrClosed)
	}

	// Cluster-wide admission: one gate in front of N per-shard gates.
	select {
	case r.inflight <- struct{}{}:
	default:
		return Response{}, fmt.Errorf("shard: cluster inflight limit %d: %w", r.opts.maxInflight, errs.ErrOverloaded)
	}
	defer func() { <-r.inflight }()

	start := time.Now()
	var resp Response
	var err error
	switch req.Op {
	case serve.OpScan:
		resp, err = r.scatterScan(ctx, req)
	case serve.OpJoin:
		resp, err = r.distJoin(ctx, req)
	default:
		// Group-sums and analytic queries carry their data inline, so any
		// live node computes the exact answer; route with failover.
		resp, err = r.routeAny(ctx, req)
	}
	if err == nil || resp.Partial {
		ms := float64(time.Since(start).Microseconds()) / 1e3
		r.reg.Histogram("shard.latency_ms").Record(ms)
		if req.Tenant != "" {
			// What the tenant waited for, whole-request: the shards' own
			// tenant histograms time per-stripe sub-requests.
			r.reg.Histogram("shard.tenant." + req.Tenant + ".latency_ms").Record(ms)
			r.reg.Histogram("shard.tenant." + req.Tenant + ".cycles_per_query").Record(resp.SimCycles)
		}
	}
	return resp, err
}

// candidates returns the live-first, breaker-aware ordering of a replica
// set, rotated by the request rotor so load spreads across replicas.
// Nodes with open breakers sort after healthy ones but are never dropped:
// the last replica standing gets tried, breaker or not. Dead nodes are
// excluded entirely. now is the dispatch's start, for the breaker check.
func (r *Router) candidates(replicas []int, now time.Time) []*node {
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()

	rot := int(r.rotor.Add(1))
	var healthy, degraded []*node
	for i := range replicas {
		n := nodes[replicas[(i+rot)%len(replicas)]]
		if !n.alive.Load() {
			continue
		}
		if n.brk.Allow(now) {
			healthy = append(healthy, n)
		} else {
			degraded = append(degraded, n)
		}
	}
	return append(healthy, degraded...)
}

// scatterScan fans a scan out to every partition, hedging and failing
// over per partition, and merges the per-stripe sums. Partitions with no
// surviving replica degrade the result to a typed partial: the sum is
// exact over the covered stripes and the caller learns exactly how much
// of the table it covers.
func (r *Router) scatterScan(ctx context.Context, req serve.Request) (Response, error) {
	r.mu.RLock()
	meta, ok := r.tables[req.Table]
	r.mu.RUnlock()
	if !ok {
		return Response{}, fmt.Errorf("shard: unknown table %q: %w", req.Table, errs.ErrInvalidInput)
	}

	type partOut struct {
		resp serve.Response
		err  error
		part *partition
		hov  hedgeOutcome
	}
	outs := make([]partOut, len(meta.parts))
	var wg sync.WaitGroup
	for i, part := range meta.parts {
		wg.Add(1)
		go func(i int, part *partition) {
			defer wg.Done()
			preq := req
			preq.Table = part.derived
			resp, hov, err := r.dispatch(ctx, part.replicas, preq)
			outs[i] = partOut{resp: resp, err: err, part: part, hov: hov}
		}(i, part)
	}
	wg.Wait()

	var out Response
	var coveredRows, coveredParts int
	var maxCycles float64
	var firstErr error
	for _, o := range outs {
		out.Failovers += o.hov.failovers
		out.Hedged = out.Hedged || o.hov.hedged
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		coveredParts++
		coveredRows += o.part.rows
		out.Sum += o.resp.Sum
		out.Spilled = out.Spilled || o.resp.Spilled
		out.SpillBytes += o.resp.SpillBytes
		if o.resp.BatchSize > out.BatchSize {
			out.BatchSize = o.resp.BatchSize
		}
		if o.resp.SimCycles > maxCycles {
			maxCycles = o.resp.SimCycles
		}
	}

	// Price the gather hop: every covered partition ships one aggregate
	// row back to the router over the fabric.
	if coveredParts > 1 {
		gatherBytes := int64(coveredParts) * 16
		out.NetworkCycles = r.clu.TransferCycles(gatherBytes, 1)
		out.BytesMoved = gatherBytes
	}
	out.SimCycles = maxCycles + out.NetworkCycles

	if coveredRows == 0 && firstErr != nil {
		// Nothing answered: propagate the routing failure, not a partial.
		return out, firstErr
	}
	if coveredRows < meta.totalRows {
		out.Partial = true
		out.CoveredFraction = float64(coveredRows) / float64(meta.totalRows)
		r.reg.Counter("shard.partials").Inc()
		return out, fmt.Errorf("shard: scan %q covered %.0f%% of rows (lost replicas): %w",
			req.Table, out.CoveredFraction*100, errs.ErrPartialResult)
	}
	out.CoveredFraction = 1
	return out, nil
}

// routeAny runs an inline-data request (group-sum, Q1, Q6, unregistered-
// table ops) on one live node, failing over across all live nodes: the data
// travels with the request, so any node computes the exact answer. The
// cluster-wide memory budget is reserved first — the federated governor's
// admission in front of the chosen shard's own.
func (r *Router) routeAny(ctx context.Context, req serve.Request) (Response, error) {
	if resv, err := r.reserve(req.Tenant); err != nil {
		return Response{}, err
	} else if resv != nil {
		defer resv.Release()
	}

	resp, hov, err := r.dispatch(ctx, r.LiveNodes(), req)
	return Response{Response: resp, Hedged: hov.hedged, Failovers: hov.failovers}, err
}

// reserve takes the request's slice of the cluster-wide budget, or nil
// when the router-level governor is off.
func (r *Router) reserve(tenant string) (*mem.Reservation, error) {
	if r.gov == nil {
		return nil, nil
	}
	resv, err := r.gov.ReserveFor(tenant, 0)
	if err != nil {
		return nil, fmt.Errorf("shard: cluster memory budget: %w", err)
	}
	return resv, nil
}

// Metrics returns the router's own registry (per-shard registries hang off
// each serve.Server).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// Workers returns the cluster-wide simulated-core budget: the sum of the
// live shards' worker budgets.
func (r *Router) Workers() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, n := range r.nodes {
		if n.alive.Load() {
			total += n.server().Workers()
		}
	}
	return total
}

// SetTenantMemCap forwards a per-tenant byte cap to the cluster-wide
// governor (when armed) and to every live shard's governor, so a tenant's
// cap binds wherever its queries land.
func (r *Router) SetTenantMemCap(tenant string, bytes int64) {
	if r.gov != nil {
		r.gov.SetTenantCap(tenant, bytes)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, n := range r.nodes {
		if n.alive.Load() {
			n.server().SetTenantMemCap(tenant, bytes)
		}
	}
}
