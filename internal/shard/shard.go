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
// A node is live exactly while it has a server: one atomic pointer, which
// KillNode clears once the server has stopped and RecoverNode publishes only
// once the new server holds its stripes. The fixed node list and that
// pointer are read without a lock.
//
// A scan visits only the stripes its range can hit. Each partition keeps a
// zone per column — exact min, max and wrapping sum, folded at Register from
// the stripe's block headers — and the router classifies a stripe by the
// rule every block scan applies (compress.MatchRange): a stripe the range
// misses is covered with sum 0, one it covers whole is answered from its
// stored total, and neither needs a hop or a live replica.
//
// Every routed request is one fan-out (fanout.go): its sub-requests — a
// scan's unsettled stripes, a join's sub-joins, or the one inline request —
// are driven from the calling goroutine under one cancel context, one hedge
// timer and one results channel, with their state taken from a pool. The hedge
// deadline is measured, not modeled: the p95 of the router's own recent
// dispatch times per op class. A hedge loser is cancelled when the whole
// request returns, not when its own sub-request settles.
//
// Robustness mechanisms mirror the single-node ones, one level up:
//
//   - fault.ClassNodeLoss kills a whole shard the way core loss kills a
//     worker, as a crash-stop; the router fails over to surviving replicas,
//     which is its only response to a failing node;
//   - hedged dispatch sends a late sub-request to its next replica and
//     cancels the loser with the request, bounding the tail the way
//     straggler retirement bounds a slow core;
//   - when a key range loses every replica, scans degrade to typed
//     partial results (errs.ErrPartialResult + CoveredFraction) instead
//     of failing or — worse — silently returning a wrong total;
//   - recovery re-replicates a revived node's partitions from a live
//     replica, or else from a dead replica's durable store.
//
// Admission has one gate per node and none above them: a node's intake
// lanes and memory governor refuse what it cannot take, and the fan-out
// fails over to a node that can. The router's only part is to split the
// cluster's limits (the template's memory budget, each tenant's cap) evenly
// over the nodes.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwstar/internal/cluster"
	"hwstar/internal/compress"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/metrics"
	"hwstar/internal/serve"
	"hwstar/internal/store"
	"hwstar/internal/table"
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
	// overridden per node from Stores; everything else is shared except
	// Memory.BudgetBytes, which is the cluster's budget: each node governs
	// budget / Shards (share).
	Shard serve.Options

	// Stores, when non-nil, must hold one durable store per shard
	// (len == Shards). A revived node copies each of its partitions from a
	// live replica, and with stores also from a dead replica's store or,
	// when nobody else holds it, its own replay. Without stores a partition
	// none of whose replicas is live stays partial until re-registered.
	Stores []*store.Store

	// Faults drives router-level fault draws: ChaosTick asks it LoseNode
	// per live node. Nil injects nothing.
	Faults *fault.Injector

	// hedgeDelay is a test seam: when positive, it replaces the measured
	// per-op-class hedge deadline with a fixed one, so tests force
	// (time.Nanosecond) or forbid (time.Hour) hedging deterministically.
	hedgeDelay time.Duration
}

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

// node is one shard: its durable store and its serve.Server, which is also
// its liveness: srv is nil exactly while the node is dead.
type node struct {
	id  int
	st  *store.Store
	srv atomic.Pointer[serve.Server]
}

// partition is one contiguous row stripe of a registered table, placed on
// a fixed replica set. derived is the per-shard table name the stripe is
// registered under ("orders@3" for partition 3 of "orders"); zones holds one
// zone per column.
type partition struct {
	id       int
	derived  string
	rows     int
	replicas []int // node ids, as replicasOf lists them
	zones    []zone
}

// zone is one column's zone map over a whole stripe: the exact min and max
// of its values and their wrapping sum. It is the stripe's block zone maps
// folded into one, so the router classifies a stripe by the blocks' rule
// (compress.MatchRange) and answers a stripe the range covers whole from sum.
type zone struct{ min, max, sum int64 }

// stripeZones folds each column's zone from the encoded stripe's block
// headers (BlockRange, BlockSum): O(blocks), no pass over the rows. Every
// column must be a non-empty block stream, as store.TableFromCols builds.
func stripeZones(t *table.Table) ([]zone, error) {
	zones := make([]zone, t.Schema().NumColumns())
	for c := range zones {
		col, ok := t.Column(c).(*compress.Compressed)
		if !ok || col.NumBlocks() == 0 {
			return nil, fmt.Errorf("shard: stripe %q column %d is not a block stream", t.Name(), c)
		}
		z := &zones[c]
		z.min, z.max = col.BlockRange(0)
		for b := range col.NumBlocks() {
			lo, hi := col.BlockRange(b)
			z.min, z.max = min(z.min, lo), max(z.max, hi)
			z.sum += col.BlockSum(b)
		}
	}
	return zones, nil
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
	reg     *metrics.Registry

	// nodes is fixed at New and read without mu.
	nodes []*node
	// closed flips once, under mu, so publish, which reads it under mu's
	// read lock, either publishes before Close sweeps the nodes or sees it.
	closed atomic.Bool

	// mu guards tables and caps.
	mu     sync.RWMutex
	tables map[string]*tableMeta
	// caps is every tenant's cluster-wide memory cap SetTenantMemCap was
	// given, so a server built later (a revived node's) carries its share.
	caps map[string]int64

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
		opts:    opts,
		machine: m,
		clu:     clu,
		reg:     metrics.NewRegistry(),
		tables:  make(map[string]*tableMeta),
		caps:    make(map[string]int64),
	}
	for i := 0; i < opts.Shards; i++ {
		n := &node{id: i}
		if opts.Stores != nil {
			n.st = opts.Stores[i]
		}
		srv, err := r.buildServer(n)
		if err != nil {
			for _, prev := range r.nodes {
				prev.srv.Load().Close()
			}
			return nil, fmt.Errorf("shard: node %d: %w", i, err)
		}
		n.srv.Store(srv)
		r.nodes = append(r.nodes, n)
	}
	if err := r.dropStrays(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// dropStrays reconciles every node's replayed stripes with the placement
// rule: a node drops each name@p that replicasOf does not assign to it, so
// it stops serving the stripe now and its next checkpoint stops storing it.
// A stray is dropped only when some node the rule assigns holds name@p: a
// lone copy is the last durable one and stays.
func (r *Router) dropStrays() error {
	held := make([]map[string]bool, len(r.nodes))
	for i, n := range r.nodes {
		held[i] = make(map[string]bool)
		if n.st != nil {
			for _, name := range n.st.Tables() {
				held[i][name] = true
			}
		}
	}
	for _, n := range r.nodes {
		for name := range held[n.id] {
			at := strings.LastIndexByte(name, '@')
			if at < 0 {
				continue
			}
			p, err := strconv.Atoi(name[at+1:])
			if err != nil || p < 0 {
				continue
			}
			owners := replicasOf(p, r.opts.Shards, r.opts.Replicas)
			if slices.Contains(owners, n.id) || !slices.ContainsFunc(owners, func(o int) bool { return held[o][name] }) {
				continue
			}
			if err := n.srv.Load().Drop(name); err != nil {
				return fmt.Errorf("shard: node %d: drop stray stripe %s: %w", n.id, name, err)
			}
		}
	}
	return nil
}

// buildServer constructs n's serve.Server from the template, over n's store
// and with its share of the cluster's memory budget. It does not install it.
func (r *Router) buildServer(n *node) (*serve.Server, error) {
	so := r.opts.Shard
	so.Store = n.st
	so.Memory.BudgetBytes = r.share(so.Memory.BudgetBytes)
	return serve.New(r.machine, so)
}

// publish makes srv dead node n's server, after giving it its share of every
// tenant memory cap the router holds, both under mu's read lock: a racing
// SetTenantMemCap is read here or finds srv, and a racing Close finds srv in
// its sweep or is seen here. If the router is closed or n already has a
// server (another RecoverNode won), srv is killed, not flushed, since n's
// store may be its rival's, and the error wraps errs.ErrClosed.
func (r *Router) publish(n *node, srv *serve.Server) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.closed.Load() {
		for tenant, bytes := range r.caps {
			srv.SetTenantMemCap(tenant, r.share(bytes))
		}
		if n.srv.CompareAndSwap(nil, srv) {
			return nil
		}
	}
	srv.Kill() // never published, so no request waits on it
	return fmt.Errorf("already live or router closed: %w", errs.ErrClosed)
}

// Close drains every live shard and releases router state. A server that
// answers errs.ErrClosed was already stopped by a racing KillNode, which
// finishes stopping it before it returns. Safe to call once; requests
// submitted after Close fail with errs.ErrClosed.
func (r *Router) Close() error {
	r.mu.Lock()
	closing := !r.closed.Swap(true)
	r.mu.Unlock()
	if !closing {
		return nil
	}

	var first error
	for _, n := range r.nodes {
		if srv := n.srv.Load(); srv != nil {
			if err := srv.Close(); err != nil && !errors.Is(err, errs.ErrClosed) && first == nil {
				first = err
			}
		}
	}
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

	if r.closed.Load() {
		return fmt.Errorf("shard: register %q: %w", name, errs.ErrClosed)
	}

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
		if err == nil {
			part.zones, err = stripeZones(enc)
		}
		if err != nil {
			return fmt.Errorf("shard: register %q partition %d: %w", name, p, err)
		}
		for _, nid := range part.replicas {
			srv := r.nodes[nid].srv.Load()
			if srv == nil {
				// A dead replica misses the stripe; re-replication
				// restores it when the node revives.
				continue
			}
			if err := srv.RegisterEncoded(enc); errors.Is(err, errs.ErrClosed) {
				continue // a replica being killed: as good as dead
			} else if err != nil {
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
	if r.closed.Load() {
		return Response{}, fmt.Errorf("shard: %w", errs.ErrClosed)
	}

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

// scatterScan answers a scan stripe by stripe. Each stripe's zone on the
// filter column settles it at the router when the range misses it (sum 0)
// or covers it whole (its stored total of the aggregate column); those need
// no hop and no live replica. The rest go out in one fan-out, hedging and
// failing over per stripe, and their sums are merged in. Stripes with no
// surviving replica degrade the result to a typed partial: the sum is exact
// over the covered stripes and the caller learns exactly how much of the
// table it covers. A stripe that fails any other way fails the scan.
func (r *Router) scatterScan(ctx context.Context, req serve.Request) (Response, error) {
	r.mu.RLock()
	meta, ok := r.tables[req.Table]
	r.mu.RUnlock()
	if !ok {
		return Response{}, fmt.Errorf("shard: unknown table %q: %w", req.Table, errs.ErrInvalidInput)
	}

	// A stripe's zone settles it only for a valid scan whose caller is
	// still waiting: an invalid or cancelled one gets the error its servers
	// would give, not a silent 0 for a range that misses every stripe.
	q := req.Query
	if err := req.Priority.Validate(); err != nil {
		return Response{}, err
	}
	if err := q.Validate(len(meta.parts[0].zones)); err != nil {
		return Response{}, err
	}
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	var out Response
	var coveredRows, pruned, summed int
	f := newFanout(len(meta.parts))
	defer f.release()
	for _, part := range meta.parts {
		z := part.zones[q.FilterCol]
		switch compress.MatchRange(z.min, z.max, q.Lo, q.Hi) {
		case compress.MatchNone:
			pruned++
		case compress.MatchAll:
			summed++
			out.Sum += part.zones[q.AggCol].sum
		default:
			f.add(req, part.id, part.replicas).Table = part.derived
			continue
		}
		coveredRows += part.rows
	}
	if pruned > 0 {
		r.reg.Counter("shard.stripes_pruned").Add(int64(pruned))
	}
	if summed > 0 {
		r.reg.Counter("shard.stripes_summed").Add(int64(summed))
	}
	if len(f.subs) > 0 {
		r.run(ctx, f)
	}

	var answered int
	var maxCycles float64
	var lost, failed error
	for i := range f.subs {
		s := &f.subs[i]
		out.Failovers += s.failovers
		out.Hedged = out.Hedged || s.hedged
		if s.err != nil {
			if errors.Is(s.err, errs.ErrDegraded) { // its replicas are gone
				lost = s.err
			} else {
				failed = s.err
			}
			continue
		}
		answered++
		coveredRows += meta.parts[s.part].rows
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

	// Price the gather hop: every dispatched stripe that answered ships one
	// aggregate row back to the router over the fabric.
	if answered > 1 {
		gatherBytes := int64(answered) * 16
		out.NetworkCycles = r.clu.TransferCycles(gatherBytes, 1)
		out.BytesMoved = gatherBytes
	}
	out.SimCycles = maxCycles + out.NetworkCycles

	// Only stripes that lost their replicas degrade the scan to a partial.
	// A stripe shed (overload, memory pressure) or cancelled fails the whole
	// scan with its own error, which the caller can retry; so does replica
	// loss when no row is covered.
	if failed != nil {
		return out, failed
	}
	if lost != nil && coveredRows == 0 {
		return out, lost
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
// travels with the request, so any node computes the exact answer.
func (r *Router) routeAny(ctx context.Context, req serve.Request) (Response, error) {
	return r.routeOne(ctx, req, r.LiveNodes())
}

// routeOne dispatches req alone to replicas: a fan-out of one.
func (r *Router) routeOne(ctx context.Context, req serve.Request, replicas []int) (Response, error) {
	f := newFanout(1)
	defer f.release()
	f.add(req, 0, replicas)
	r.run(ctx, f)
	s := &f.subs[0]
	return Response{Response: s.resp, Hedged: s.hedged, Failovers: s.failovers}, s.err
}

// Metrics returns the router's own registry (per-shard registries hang off
// each serve.Server).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// Histogram returns a shard-side series (serve.batch_size, say) merged over
// the live shards' registries into a new histogram. A dead node's samples
// are gone with its server, so after a node loss the merge is a floor.
func (r *Router) Histogram(name string) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, n := range r.nodes {
		if srv := n.srv.Load(); srv != nil {
			h.Merge(srv.Metrics().Histogram(name))
		}
	}
	return h
}

// Workers returns the cluster-wide simulated-core budget: the sum of the
// live shards' worker budgets.
func (r *Router) Workers() int {
	total := 0
	for _, n := range r.nodes {
		if srv := n.srv.Load(); srv != nil {
			total += srv.Workers()
		}
	}
	return total
}

// SetTenantMemCap caps what a tenant holds across the cluster: every
// shard's governor caps it at its share, so the bytes the nodes charge it
// stay within bytes in sum. The router keeps the cap: a node dead now gets
// its share when RecoverNode builds its new server.
func (r *Router) SetTenantMemCap(tenant string, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.caps[tenant] = bytes
	for _, n := range r.nodes {
		if srv := n.srv.Load(); srv != nil {
			srv.SetTenantMemCap(tenant, r.share(bytes))
		}
	}
}

// share is one node's part of a cluster-wide byte limit: limit / Shards. A
// positive limit never rounds down to 0, which would mean ungoverned or
// uncapped; a limit of 0 or below passes through as it is.
func (r *Router) share(limit int64) int64 {
	if limit <= 0 {
		return limit
	}
	return max(limit/int64(r.opts.Shards), 1)
}
