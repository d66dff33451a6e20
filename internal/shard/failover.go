package shard

import (
	"context"
	"fmt"
	"slices"

	"hwstar/internal/errs"
	"hwstar/internal/serve"
	"hwstar/internal/table"
)

// KillNode simulates whole-node loss (fault.ClassNodeLoss made manual):
// the node's serve.Server disappears from routing immediately and is
// killed in the background (serve.Server.Kill: drained, never flushed).
// In-flight requests against it either finish or fail over; new dispatches
// skip it. The node's durable store — bytes on disk — survives, exactly
// like a crashed machine's disks, and seeds recovery when the node revives:
// the revived server shares the store, so the dead one must not commit to
// it. Killing an already-dead node is a no-op.
func (r *Router) KillNode(id int) error {
	n, err := r.nodeByID(id)
	if err != nil {
		return err
	}
	srv := n.srv.Swap(nil)
	if srv == nil {
		return nil
	}
	r.reg.Counter("shard.node_losses").Inc()

	// Drain the abandoned server off the request path so 128-cycle chaos
	// runs don't accumulate live dispatch goroutines.
	r.reapWG.Add(1)
	go func() {
		defer r.reapWG.Done()
		if c := r.opts.reapHold; c != nil {
			c <- struct{}{}
			<-c
		}
		srv.Kill()
	}()
	return nil
}

// RecoverNode revives a killed node: a fresh serve.Server is built from
// the shard template (replaying the node's own durable store, when one is
// armed), the node's partitions (replicasOf) are re-replicated onto it from a
// surviving replica's durable store, and only then is it published, which
// returns the node to routing. Recovering a live node is a no-op; a recovery
// that loses a race with Close or another RecoverNode kills the server it
// built and returns an error wrapping errs.ErrClosed.
func (r *Router) RecoverNode(ctx context.Context, id int) error {
	n, err := r.nodeByID(id)
	if err != nil {
		return err
	}
	if n.srv.Load() != nil {
		return nil
	}

	srv, err := r.buildServer(n)
	if err != nil {
		return fmt.Errorf("shard: recover node %d: %w", id, err)
	}
	if err := r.rereplicate(ctx, n, srv); err != nil {
		srv.Kill()
		return fmt.Errorf("shard: recover node %d: %w", id, err)
	}
	n.brk.Reset()
	if err := r.publish(n, srv); err != nil {
		return fmt.Errorf("shard: recover node %d: %w", id, err)
	}
	return nil
}

// rereplicate restores every partition assigned to n onto srv, n's server
// not yet published, from a surviving replica's durable store. The revived
// node's own replay is not trusted: it restores whatever the node's disk
// held when it died, under the same derived name a later re-registration
// used, so a stripe is always taken from another replica when one can supply
// it. The node keeps its replayed copy only when nobody else holds the
// stripe; stripes nobody holds durably stay lost (their table remains
// partial until re-registered).
func (r *Router) rereplicate(ctx context.Context, n *node, srv *serve.Server) error {
	r.mu.RLock()
	tables := make([]*tableMeta, 0, len(r.tables))
	for _, meta := range r.tables {
		tables = append(tables, meta)
	}
	r.mu.RUnlock()

	for _, meta := range tables {
		for _, part := range meta.parts {
			if !slices.Contains(part.replicas, n.id) {
				continue
			}
			stripe, ok := r.fetchStripe(ctx, part, n.id)
			if !ok {
				continue
			}
			if err := srv.RegisterEncoded(stripe); err != nil {
				return fmt.Errorf("re-replicate %s: %w", part.derived, err)
			}
			r.reg.Counter("shard.rereplications").Inc()
		}
	}
	return nil
}

// fetchStripe reads one partition's encoded stripe from a surviving
// replica's durable store, preferring live replicas (their store reflects
// the latest registration flush). Blocks move as stored; no row is decoded.
func (r *Router) fetchStripe(ctx context.Context, part *partition, excludeID int) (*table.Table, bool) {
	ordered := make([]*node, 0, len(part.replicas))
	for _, nid := range part.replicas {
		if nid == excludeID {
			continue
		}
		if src := r.nodes[nid]; src.srv.Load() != nil {
			ordered = append(ordered, src)
		}
	}
	for _, nid := range part.replicas {
		if nid == excludeID {
			continue
		}
		if src := r.nodes[nid]; src.srv.Load() == nil {
			ordered = append(ordered, src)
		}
	}
	for _, src := range ordered {
		if src.st == nil {
			continue
		}
		if t, err := src.st.Load(ctx, part.derived); err == nil {
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
// degraded state, and KillNode is the only way to stage total loss. Returns
// the ids killed this tick, in node order.
func (r *Router) ChaosTick(ctx context.Context) []int {
	inj := r.opts.Faults
	if !inj.Enabled() {
		return nil
	}
	live := len(r.LiveNodes())
	var killed []int
	for _, n := range r.nodes {
		if ctx.Err() != nil {
			break
		}
		if live <= 1 {
			break
		}
		if n.srv.Load() == nil {
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
	var out []int
	for _, n := range r.nodes {
		if n.srv.Load() != nil {
			out = append(out, n.id)
		}
	}
	return out
}

func (r *Router) nodeByID(id int) (*node, error) {
	if id < 0 || id >= len(r.nodes) {
		return nil, fmt.Errorf("shard: node %d out of range [0,%d): %w", id, len(r.nodes), errs.ErrInvalidInput)
	}
	return r.nodes[id], nil
}
