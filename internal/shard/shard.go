// Package shard is the serving tier lifted one level up the hardware
// hierarchy: N serve.Server shards — each a full single-node engine with
// its own scheduler, memory governor and durable store — behind a router
// that owns placement, replication, and the fabric. The keynote's argument
// ("software must understand the hardware it runs on") applied at rack
// scale means the router prices the network like any other bandwidth tier:
// distributed joins choose shuffle-vs-broadcast through the planner with
// the fabric costed via cluster.Cluster, scatter-gather scans charge the
// aggregation hop.
//
// Placement is one rule, chained declustering: a table is split into one
// contiguous stripe per node, and partition p lives on nodes p … p+R−1 (mod
// N). Membership is fixed at New, so the rule needs no state, and each node
// holds exactly R of a table's N stripes.
//
// Every routed request is one fan-out (fanout.go): its sub-requests — a
// scan's stripes, a join's sub-joins, or the one inline request — are driven
// from the calling goroutine under one cancel context, one hedge timer and
// one results channel, with their state taken from a pool. The hedge
// deadline is measured, not modeled: the p95 of the router's own recent
// dispatch times per op class. A hedge loser is cancelled when the whole
// request returns, not when its own sub-request settles.
//
// Robustness mechanisms mirror the single-node ones, one level up:
//
//   - fault.ClassNodeLoss kills a whole shard the way core loss kills a
//     worker; the router fails over to surviving replicas;
//   - each node carries a router-side circuit breaker guarding the route
//     to it (a server has no breaker of its own);
//   - hedged dispatch sends a late sub-request to its next replica and
//     cancels the loser with the request, bounding the tail the way
//     straggler retirement bounds a slow core;
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

	// hedgeDelay, maxInflight and reapHold are test seams. hedgeDelay, when
	// positive, replaces the measured per-op-class hedge deadline with a
	// fixed one, so tests force (time.Nanosecond) or forbid (time.Hour)
	// hedging deterministically. maxInflight, when positive, replaces the
	// Shards × 256 cluster-wide admission bound, so a test can fill it with
	// one request. reapHold, when non-nil, stops KillNode's reaper before it
	// kills the dead server: it sends on the channel, then receives.
	hedgeDelay  time.Duration
	maxInflight int
	reapHold    chan struct{}
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
	replicas []int // node ids, as replicasOf lists them
}

// replicasOf is the placement rule: partition p lives on nodes p, p+1, …,
// p+r−1, mod the node count. Node p+j is listed at index (p+j) mod r: the
// fan-out starts sub p at index rot+p, which is node p + rot mod r for every
// p, so one scan's stripes start on distinct nodes and the rotor moves them
// all together.
func replicasOf(p, nodes, r int) []int {
	out := make([]int, r)
	for j := range out {
		out[(p+j)%r] = (p + j) % nodes
	}
	return out
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
	gov     *mem.Governor // nil when Options.Memory is zero
	reg     *metrics.Registry

	inflight chan struct{}

	mu     sync.RWMutex
	nodes  []*node
	tables map[string]*tableMeta
	closed bool
	// caps is every tenant memory cap SetTenantMemCap was given, so a
	// server built later (a revived node's) carries them too.
	caps map[string]int64

	// reapWG tracks background teardown of killed nodes' servers.
	reapWG sync.WaitGroup

	// rotor spreads first attempts across replicas.
	rotor atomic.Uint64

	// lat is each op class's recent dispatch times, for the hedge deadline.
	lat [opClasses]latencyClass
}

// New builds the shard tier: opts.Shards serve.Servers on machine m behind
// a router that places partition p on nodes p … p+Replicas−1. Every shard is
// constructed from the opts.Shard template (with its own store when
// opts.Stores is set) and serves that store's tables by the time New returns
// — or the whole constructor fails and tears down. The context is unused;
// the parameter stays because the frozen benchmark (cmd/hwperf) passes one.
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
		reg:      metrics.NewRegistry(),
		inflight: make(chan struct{}, opts.maxInflight),
		tables:   make(map[string]*tableMeta),
		caps:     make(map[string]int64),
	}
	if opts.Memory.BudgetBytes > 0 {
		r.gov = mem.NewGovernor(opts.Memory)
	}
	for i := 0; i < opts.Shards; i++ {
		n := &node{id: i, brk: breaker.New(routeBreakerThreshold, routeBreakerCooldown)}
		if opts.Stores != nil {
			n.st = opts.Stores[i]
		}
		if _, err := r.buildServer(n); err != nil {
			for _, prev := range r.nodes {
				prev.server().Close()
			}
			return nil, fmt.Errorf("shard: node %d: %w", i, err)
		}
		n.alive.Store(true)
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

// buildServer constructs one shard's serve.Server from the template, gives
// it every tenant memory cap the router holds and installs it as n's server.
// The caps are read and the server installed under one read lock, so a
// SetTenantMemCap racing a revival is either read here or finds the server.
func (r *Router) buildServer(n *node) (*serve.Server, error) {
	so := r.opts.Shard
	so.Store = n.st
	srv, err := serve.New(r.machine, so)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for tenant, bytes := range r.caps {
		srv.SetTenantMemCap(tenant, bytes)
	}
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
	return srv, nil
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
// than copied — on the stripe's Replicas nodes (replicasOf). Placement
// depends only on the partition number and the cluster's shape, so a
// re-registered table lands on the same shards its durable stripes live on.
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
			replicas: replicasOf(p, r.opts.Shards, r.opts.Replicas),
		}
		enc, err := store.TableFromCols(part.derived, stripe)
		if err != nil {
			return fmt.Errorf("shard: register %q partition %d: %w", name, p, err)
		}
		for _, nid := range part.replicas {
			// Read the server once: KillNode clears it without r.mu, so a
			// node seen alive may already have none.
			n := nodes[nid]
			srv := n.server()
			if srv == nil || !n.alive.Load() {
				// A dead replica misses the stripe; re-replication
				// restores it when the node revives.
				continue
			}
			if err := srv.RegisterEncoded(enc); err != nil {
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
		r.reg.Histogram("shard.latency_ms").Record(float64(time.Since(start).Microseconds()) / 1e3)
	}
	return resp, err
}

// scatterScan fans a scan out to every partition in one fan-out, hedging
// and failing over per partition, and merges the per-stripe sums.
// Partitions with no surviving replica degrade the result to a typed
// partial: the sum is exact over the covered stripes and the caller learns
// exactly how much of the table it covers.
func (r *Router) scatterScan(ctx context.Context, req serve.Request) (Response, error) {
	r.mu.RLock()
	meta, ok := r.tables[req.Table]
	r.mu.RUnlock()
	if !ok {
		return Response{}, fmt.Errorf("shard: unknown table %q: %w", req.Table, errs.ErrInvalidInput)
	}

	f := newFanout(len(meta.parts))
	defer f.release()
	for _, part := range meta.parts {
		f.add(req, part.replicas).Table = part.derived
	}
	r.run(ctx, f)

	var out Response
	var coveredRows, coveredParts int
	var maxCycles float64
	var firstErr error
	for i := range f.subs {
		s := &f.subs[i]
		out.Failovers += s.failovers
		out.Hedged = out.Hedged || s.hedged
		if s.err != nil {
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		coveredParts++
		coveredRows += meta.parts[i].rows
		out.Sum += s.resp.Sum
		out.Spilled = out.Spilled || s.resp.Spilled
		out.SpillBytes += s.resp.SpillBytes
		if s.resp.BatchSize > out.BatchSize {
			out.BatchSize = s.resp.BatchSize
		}
		if s.resp.SimCycles > maxCycles {
			maxCycles = s.resp.SimCycles
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

	return r.routeOne(ctx, req, r.LiveNodes())
}

// routeOne dispatches req alone to replicas: a fan-out of one.
func (r *Router) routeOne(ctx context.Context, req serve.Request, replicas []int) (Response, error) {
	f := newFanout(1)
	defer f.release()
	f.add(req, replicas)
	r.run(ctx, f)
	s := &f.subs[0]
	return Response{Response: s.resp, Hedged: s.hedged, Failovers: s.failovers}, s.err
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

// Histogram returns a shard-side series (serve.batch_size, say) merged over
// the live shards' registries into a new histogram. A dead node's samples
// are gone with its server, so after a node loss the merge is a floor.
func (r *Router) Histogram(name string) *metrics.Histogram {
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()
	h := metrics.NewHistogram()
	for _, n := range nodes {
		if srv := n.server(); srv != nil && n.alive.Load() {
			h.Merge(srv.Metrics().Histogram(name))
		}
	}
	return h
}

// Workers returns the cluster-wide simulated-core budget: the sum of the
// live shards' worker budgets.
func (r *Router) Workers() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, n := range r.nodes {
		if srv := n.server(); srv != nil && n.alive.Load() {
			total += srv.Workers()
		}
	}
	return total
}

// SetTenantMemCap forwards a per-tenant byte cap to the cluster-wide
// governor (when armed) and to every shard's governor, so a tenant's cap
// binds wherever its queries land. The router keeps the cap: a node dead
// now gets it when RecoverNode builds its new server.
func (r *Router) SetTenantMemCap(tenant string, bytes int64) {
	if r.gov != nil {
		r.gov.SetTenantCap(tenant, bytes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.caps[tenant] = bytes
	for _, n := range r.nodes {
		if srv := n.server(); srv != nil {
			srv.SetTenantMemCap(tenant, bytes)
		}
	}
}
