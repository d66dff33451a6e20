package shard

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

// admittedPerNode reads each node's own admission count.
func admittedPerNode(r *Router) []int64 {
	out := make([]int64, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.server().Health().Admitted
	}
	return out
}

// startsOnDistinctNodes runs one request with hedging off and checks that its
// first attempts reached want distinct nodes, one attempt each.
func startsOnDistinctNodes(t *testing.T, r *Router, req serve.Request, want int, what string) {
	t.Helper()
	before := admittedPerNode(r)
	if _, err := r.Submit(context.Background(), req); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	hit := 0
	for i, n := range admittedPerNode(r) {
		switch n - before[i] {
		case 0:
		case 1:
			hit++
		default:
			t.Fatalf("%s: node %d took %d attempts", what, i, n-before[i])
		}
	}
	if hit != want {
		t.Fatalf("%s: started on %d distinct nodes, want %d", what, hit, want)
	}
}

// TestPlacementRule covers every cluster shape up to six nodes: partition p
// lives on nodes p … p+R−1 (R clamped to N), the layout is the same on every
// router, every node holds exactly R stripes of a full table, and for every
// rotor value one scan's stripes — and one join's sub-joins — start on
// distinct nodes.
func TestPlacementRule(t *testing.T) {
	cols, _ := testRelation(1000)
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 40, BuildRows: 500, ProbeRows: 3000})
	join := serve.Request{Op: serve.OpJoin}
	join.Join.BuildKeys, join.Join.BuildVals = g.BuildKeys, g.BuildVals
	join.Join.ProbeKeys, join.Join.ProbeVals = g.ProbeKeys, g.ProbeVals

	for n := 1; n <= 6; n++ {
		for rep := 1; rep <= n+1; rep++ {
			t.Run(fmt.Sprintf("N%d-R%d", n, rep), func(t *testing.T) {
				opts := Options{Shards: n, Replicas: rep, Shard: serve.Options{Workers: 1}, hedgeDelay: time.Hour}
				r, twin := newRouter(t, opts), newRouter(t, opts)
				small := (n + 1) / 2 // fewer partitions than nodes, for N > 1
				for _, rr := range []*Router{r, twin} {
					if err := rr.Register("full", cols); err != nil {
						t.Fatal(err)
					}
					if err := rr.Register("small", [][]int64{cols[0][:small], cols[1][:small]}); err != nil {
						t.Fatal(err)
					}
				}
				wantR := min(rep, n)

				parts, _ := r.Partitions("full")
				again, _ := twin.Partitions("full")
				if len(parts) != n {
					t.Fatalf("%d partitions, want %d", len(parts), n)
				}
				held := make([]int, n)
				for i, p := range parts {
					if !slices.Equal(p.Replicas, again[i].Replicas) {
						t.Fatalf("partition %d: %v on one router, %v on another", p.ID, p.Replicas, again[i].Replicas)
					}
					want := make([]int, wantR)
					for k := range want {
						want[k] = (p.ID + k) % n
					}
					if got := slices.Sorted(slices.Values(p.Replicas)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
						t.Fatalf("partition %d on nodes %v, want %v", p.ID, p.Replicas, want)
					}
					for id, nd := range r.nodes {
						if holdsStripe(nd, fmt.Sprintf("full@%d", p.ID)) {
							if !slices.Contains(p.Replicas, id) {
								t.Fatalf("node %d holds stripe %d, placed on %v", id, p.ID, p.Replicas)
							}
							held[id]++
						}
					}
				}
				for id, h := range held {
					if h != wantR {
						t.Fatalf("node %d holds %d stripes, want %d", id, h, wantR)
					}
				}

				// Each request draws the next rotor value; n·R of them cover
				// every residue the draw is taken under.
				for rot := 0; rot < n*wantR; rot++ {
					startsOnDistinctNodes(t, r, scanReq("full", 0, 999), n, fmt.Sprintf("scan %d of full", rot))
					startsOnDistinctNodes(t, r, scanReq("small", 0, 999), min(small, n), fmt.Sprintf("scan %d of small", rot))
					startsOnDistinctNodes(t, r, join, n, fmt.Sprintf("join %d", rot))
				}
			})
		}
	}
}

// The three tests below check replicasOf, the rule itself, without a router.
// Chained declustering lays the nodes on a ring: partition p's replicas are
// the R nodes from p onward around it.

func TestRingReplicaSetsAreDistinctAndStable(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for rep := 1; rep <= n; rep++ {
			for p := 0; p < n; p++ {
				reps := replicasOf(p, n, rep)
				if len(reps) != rep {
					t.Fatalf("N%d-R%d partition %d: %d replicas, want %d", n, rep, p, len(reps), rep)
				}
				want := make([]int, rep)
				for k := range want {
					want[k] = (p + k) % n
				}
				if got := slices.Sorted(slices.Values(reps)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
					t.Fatalf("N%d-R%d partition %d: replicas %v, want the nodes %v", n, rep, p, reps, want)
				}
				if again := replicasOf(p, n, rep); !slices.Equal(reps, again) {
					t.Fatalf("N%d-R%d partition %d: not stable: %v vs %v", n, rep, p, reps, again)
				}
			}
		}
	}
}

// TestRingBalance checks that with one partition per node every node stores
// exactly R stripes, and that for every rotor value the fan-out's draw
// (index rot+p of partition p's list, as candidates takes it) starts each
// node on exactly one stripe.
func TestRingBalance(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for rep := 1; rep <= n; rep++ {
			stored := make([]int, n)
			for p := 0; p < n; p++ {
				for _, id := range replicasOf(p, n, rep) {
					stored[id]++
				}
			}
			for id, c := range stored {
				if c != rep {
					t.Fatalf("N%d-R%d: node %d stores %d stripes, want %d", n, rep, id, c, rep)
				}
			}
			for rot := 0; rot < rep; rot++ {
				first := make([]int, n)
				for p := 0; p < n; p++ {
					reps := replicasOf(p, n, rep)
					first[reps[(rot+p)%rep]]++
				}
				for id, c := range first {
					if c != 1 {
						t.Fatalf("N%d-R%d rotor %d: node %d starts %d stripes, want 1", n, rep, rot, id, c)
					}
				}
			}
		}
	}
}

func TestRingClampsReplicasToNodes(t *testing.T) {
	o := Options{Shards: 2, Replicas: 5}
	o.setDefaults()
	if o.Replicas != 2 {
		t.Fatalf("Replicas = %d, want clamped to 2 nodes", o.Replicas)
	}
	for p := 0; p < o.Shards; p++ {
		if got := replicasOf(p, o.Shards, o.Replicas); len(got) != 2 || got[0] == got[1] {
			t.Fatalf("partition %d: replicas = %v, want both nodes", p, got)
		}
	}
}
