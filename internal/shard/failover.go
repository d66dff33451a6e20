package shard

import (
	"context"
	"fmt"

	"hwstar/internal/errs"
	"hwstar/internal/table"
)

// KillNode simulates whole-node loss (fault.ClassNodeLoss made manual):
// the node's serve.Server disappears from routing immediately and is
// drained in the background. In-flight requests against it either finish
// or fail over; new dispatches skip it. The node's durable store — bytes
// on disk — survives, exactly like a crashed machine's disks, and seeds
// recovery when the node revives. Killing an already-dead node is a no-op.
func (r *Router) KillNode(id int) error {
	n, err := r.nodeByID(id)
	if err != nil {
		return err
	}
	if !n.alive.CompareAndSwap(true, false) {
		return nil
	}
	r.reg.Counter("shard.node_losses").Inc()

	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	n.mu.Unlock()
	if srv != nil {
		// Drain the abandoned server off the request path so 128-cycle
		// chaos runs don't accumulate live dispatch goroutines.
		r.reapWG.Add(1)
		go func() {
			defer r.reapWG.Done()
			srv.Close()
		}()
	}
	return nil
}

// RecoverNode revives a killed node: a fresh serve.Server is built from
// the shard template (replaying the node's own durable store, when one is
// armed), the node's ring-assigned partitions are re-replicated from a
// surviving replica's durable store, and the node rejoins routing. The
// copy is memory-governed under the "_rereplicate" tenant on the
// cluster-wide governor — recovery traffic competes for budget like any
// other tenant instead of stampeding the cluster.
func (r *Router) RecoverNode(ctx context.Context, id int) error {
	n, err := r.nodeByID(id)
	if err != nil {
		return err
	}
	if n.alive.Load() {
		return nil
	}

	srv, err := r.buildServer(n)
	if err != nil {
		return fmt.Errorf("shard: recover node %d: %w", id, err)
	}
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()

	if err := r.rereplicate(ctx, n); err != nil {
		n.mu.Lock()
		n.srv = nil
		n.mu.Unlock()
		srv.Close()
		return fmt.Errorf("shard: recover node %d: %w", id, err)
	}
	n.brk.Reset()
	n.alive.Store(true)
	return nil
}

// rereplicate restores every partition assigned to n from a surviving
// replica's durable store. The revived node's own replay is not trusted:
// it restores whatever the node's disk held when it died, under the same
// derived name a later re-registration used, so a stripe is always taken
// from another replica when one can supply it. The node keeps its replayed
// copy only when nobody else holds the stripe; stripes nobody holds durably
// stay lost (their table remains partial until re-registered).
func (r *Router) rereplicate(ctx context.Context, n *node) error {
	r.mu.RLock()
	tables := make([]*tableMeta, 0, len(r.tables))
	for _, meta := range r.tables {
		tables = append(tables, meta)
	}
	nodes := r.nodes
	r.mu.RUnlock()

	srv := n.server()
	for _, meta := range tables {
		for _, part := range meta.parts {
			if !contains(part.replicas, n.id) {
				continue
			}
			stripe, ok := r.fetchStripe(ctx, nodes, part, n.id)
			if !ok {
				continue
			}
			if err := r.governedCopy(stripe, func() error {
				return srv.RegisterEncoded(stripe)
			}); err != nil {
				return fmt.Errorf("re-replicate %s: %w", part.derived, err)
			}
			r.reg.Counter("shard.rereplications").Inc()
		}
	}
	return nil
}

// governedCopy runs one stripe copy under the "_rereplicate" tenant's
// slice of the cluster-wide budget, charging the stripe's encoded bytes —
// what crosses the fabric and what the revived node then holds — for the
// duration of the copy.
func (r *Router) governedCopy(stripe *table.Table, copyFn func() error) error {
	if r.gov == nil {
		return copyFn()
	}
	resv, err := r.gov.ReserveFor("_rereplicate", 0)
	if err != nil {
		return err
	}
	defer resv.Release()
	if err := resv.Charge("rereplicate-stripe", -1, stripe.Bytes()); err != nil {
		return err
	}
	return copyFn()
}

// fetchStripe reads one partition's encoded stripe from a surviving
// replica's durable store, preferring live replicas (their store reflects
// the latest registration flush). Blocks move as stored; no row is decoded.
func (r *Router) fetchStripe(ctx context.Context, nodes []*node, part *partition, excludeID int) (*table.Table, bool) {
	ordered := make([]*node, 0, len(part.replicas))
	for _, nid := range part.replicas {
		if nid == excludeID {
			continue
		}
		src := nodes[nid]
		if src.alive.Load() {
			ordered = append(ordered, src)
		}
	}
	for _, nid := range part.replicas {
		if nid == excludeID {
			continue
		}
		if src := nodes[nid]; !src.alive.Load() {
			ordered = append(ordered, src)
		}
	}
	for _, src := range ordered {
		if src.st == nil {
			continue
		}
		if t, _, err := src.st.Load(ctx, part.derived); err == nil {
			return t, true
		}
	}
	return nil, false
}

// ChaosTick draws node loss for every live node from the armed injector —
// fault.ClassNodeLoss at the router, the way the scheduler draws core
// loss per worker per run. Fired losses kill the node (replica failover
// and, later, RecoverNode take it from there). The tick never kills the
// cluster's last live node: a routerless cluster is an outage, not a
// degraded state, and tests stage total loss explicitly via KillNode or
// Config.LostNodes. Returns the ids killed this tick, in node order.
func (r *Router) ChaosTick(ctx context.Context) []int {
	inj := r.opts.Faults
	if !inj.Enabled() {
		return nil
	}
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()

	live := 0
	for _, n := range nodes {
		if n.alive.Load() {
			live++
		}
	}
	var killed []int
	for _, n := range nodes {
		if ctx.Err() != nil {
			break
		}
		if live <= 1 {
			break
		}
		if !n.alive.Load() {
			continue
		}
		if inj.LoseNode(n.id) {
			if err := r.KillNode(n.id); err == nil {
				killed = append(killed, n.id)
				live--
			}
		}
	}
	return killed
}

// LiveNodes returns the ids of nodes currently accepting routes.
func (r *Router) LiveNodes() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []int
	for _, n := range r.nodes {
		if n.alive.Load() {
			out = append(out, n.id)
		}
	}
	return out
}

func (r *Router) nodeByID(id int) (*node, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || id >= len(r.nodes) {
		return nil, fmt.Errorf("shard: node %d out of range [0,%d): %w", id, len(r.nodes), errs.ErrInvalidInput)
	}
	return r.nodes[id], nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
