package main

import (
	"context"
	"time"

	"hwstar"
)

// startChaos launches the router's kill/recover loop when -node-loss-prob
// arms it. The returned stop ends the loop and reports how many nodes it
// killed; ran is false, and stop a no-op, when chaos was never armed.
func startChaos(ctx context.Context, cfg Config, r *hwstar.Router) (stop func() (kills int, ran bool)) {
	if r == nil || cfg.NodeLossProb <= 0 {
		return func() (int, bool) { return 0, false }
	}
	quit := make(chan struct{})
	done := make(chan int, 1)
	go func() { done <- runChaos(ctx, r, cfg.Shards, quit) }()
	return func() (int, bool) {
		close(quit)
		return <-done, true
	}
}

// runChaos drives the router's seeded kill/recover loop over its nodes
// 0 … shards−1 until stop closes: each tick first revives every dead node
// (re-replicating its lost stripes from the surviving replicas; RecoverNode
// is a no-op on a live one), then draws fresh kills. Returns the total kill
// count.
func runChaos(ctx context.Context, r *hwstar.Router, shards int, stop <-chan struct{}) int {
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	kills := 0
	for {
		select {
		case <-ctx.Done():
			return kills
		case <-stop:
			return kills
		case <-ticker.C:
			for id := range shards {
				if err := r.RecoverNode(ctx, id); err != nil {
					return kills
				}
			}
			kills += len(r.ChaosTick(ctx))
		}
	}
}
