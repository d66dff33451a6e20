package shard

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"hwstar/internal/hw"
	"hwstar/internal/serve"
	"hwstar/internal/store"
	"hwstar/internal/table"
	"hwstar/internal/workload"
)

// admittedPerNode reads each node's own admission count.
func admittedPerNode(r *Router) []int64 {
	out := make([]int64, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.srv.Load().Health().Admitted
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
// rotor value the stripes one scan dispatches — and one join's sub-joins —
// start on distinct nodes.
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
				// every residue the draw is taken under. The scan of full
				// dispatches every stripe; the one across its first stripe
				// boundary dispatches fewer stripes than there are nodes; the
				// small table's one-row stripes are always settled by their
				// zones, so a scan of it dispatches nothing.
				edge := int64(1000 / n)
				for rot := 0; rot < n*wantR; rot++ {
					startsOnDistinctNodes(t, r, straddleReq("full"), n, fmt.Sprintf("scan %d of full", rot))
					startsOnDistinctNodes(t, r, scanReq("full", edge-1, edge), min(2, n), fmt.Sprintf("scan %d across a boundary", rot))
					startsOnDistinctNodes(t, r, scanReq("small", 0, 999), 0, fmt.Sprintf("scan %d of small", rot))
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

// TestRestartDropsStrayStripes is the placement rule applied to a replayed
// data dir: a stripe a node's store holds but the rule does not assign it —
// as a dir written under another placement keeps — is dropped at New when a
// node the rule assigns holds it too, and is gone from the node's store once
// the router closes. A stripe no rule node holds is the last durable copy
// and is kept.
func TestRestartDropsStrayStripes(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	open := func(dir string) *store.Store {
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	life := func(register func(*Router)) {
		stores := make([]*store.Store, len(dirs))
		for i, d := range dirs {
			stores[i] = open(d)
		}
		r, err := New(context.Background(), hw.Server2S(), Options{Shards: 3, Replicas: 2, Stores: stores, Shard: serve.Options{Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		register(r)
		if err := r.Close(); err != nil { // flushes every node's store
			t.Fatal(err)
		}
	}
	cols, _ := testRelation(6000)
	life(func(r *Router) {
		if err := r.Register("facts", cols); err != nil {
			t.Fatal(err)
		}
	})

	// Plant a copy of facts@0 — nodes 0 and 1 hold it by the rule — and a
	// lone other@0 in node 2's store.
	stripe, err := open(dirs[0]).Load(context.Background(), "facts@0")
	if err != nil {
		t.Fatal(err)
	}
	other, err := store.TableFromCols("other@0", cols)
	if err != nil {
		t.Fatal(err)
	}
	node2 := open(dirs[2])
	for _, tbl := range []*table.Table{stripe, other} {
		if err := node2.Put(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node2.Checkpoint(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	life(func(*Router) {})
	want := []string{"facts@1", "facts@2", "other@0"}
	if got := open(dirs[2]).Tables(); !slices.Equal(got, want) {
		t.Fatalf("node 2's store holds %v after a second life, want %v", got, want)
	}
}
