package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"hwstar/internal/errs"
	"hwstar/internal/serve"
	"hwstar/internal/table"
)

// KillNode simulates whole-node loss (fault.ClassNodeLoss made manual) as
// a crash-stop: it stops the node's serve.Server with serve.Server.Kill
// (intake closed, checkpointer stopped, queue drained, nothing flushed) and
// only then marks the node dead. Requests queued on the node finish; those
// that reach it while it stops are refused and fail over, and new dispatches
// skip it once it is dead. The node's durable store — bytes on disk —
// survives, exactly like a crashed machine's disks, and seeds recovery when
// the node revives; since the dead server has stopped before KillNode
// returns, it can commit nothing to the store its successor opens. Killing a
// dead node, or one a racing KillNode or Close is already stopping, is a
// no-op.
func (r *Router) KillNode(id int) error {
	n, err := r.nodeByID(id)
	if err != nil {
		return err
	}
	srv := n.srv.Load()
	if srv == nil || errors.Is(srv.Kill(), errs.ErrClosed) {
		return nil
	}
	n.srv.CompareAndSwap(srv, nil)
	r.reg.Counter("shard.node_losses").Inc()
	return nil
}

// RecoverNode revives a killed node: a fresh serve.Server is built from
// the shard template (replaying the node's own durable store, when one is
// armed), the node's partitions (replicasOf) are re-replicated onto it from a
// surviving replica (fetchStripe), and only then is it published, which
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
	if err := r.publish(n, srv); err != nil {
		return fmt.Errorf("shard: recover node %d: %w", id, err)
	}
	return nil
}

// rereplicate restores every partition assigned to n onto srv, n's server
// not yet published, from a surviving replica (fetchStripe). The revived
// node's own replay is not trusted: it restores whatever the node's disk
// held when it died, under the same derived name a later re-registration
// used, so a stripe is always taken from another replica when one can supply
// it. The node keeps its replayed copy only when nobody else holds the
// stripe; stripes nobody holds stay lost (their table remains partial until
// re-registered).
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

// fetchStripe returns one partition's encoded stripe from another replica:
// the stripe a live replica serves (its latest registration), else the one
// a dead replica's durable store holds. Blocks move as they are; no row is
// decoded.
func (r *Router) fetchStripe(ctx context.Context, part *partition, excludeID int) (*table.Table, bool) {
	for _, nid := range part.replicas {
		if srv := r.nodes[nid].srv.Load(); nid != excludeID && srv != nil {
			if t, ok := srv.Stripe(part.derived); ok {
				return t, true
			}
		}
	}
	for _, nid := range part.replicas {
		src := r.nodes[nid]
		if nid == excludeID || src.st == nil || src.srv.Load() != nil {
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
