package shard

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hwstar/internal/breaker"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/store"
)

// openStores builds one durable store per shard in fresh temp dirs.
func openStores(t *testing.T, n int) []*store.Store {
	t.Helper()
	out := make([]*store.Store, n)
	for i := range out {
		st, err := store.Open(store.Options{Dir: t.TempDir(), Machine: hw.Server2S()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		out[i] = st
	}
	return out
}

func TestScanSurvivesSingleNodeLoss(t *testing.T) {
	cols, expect := testRelation(8000)
	want := expect(0, 7999)
	r := newRouter(t, Options{Shards: 4, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Submit(context.Background(), scanReq("ev", 0, 7999))
	if err != nil {
		t.Fatalf("scan after node loss: %v", err)
	}
	if resp.Sum != want {
		t.Fatalf("scan after node loss = %d, want %d — replica failover lost committed rows", resp.Sum, want)
	}
	if resp.Partial {
		t.Fatal("R=2 must absorb one node loss without going partial")
	}
	if ch := r.ClusterHealth(); ch.NodeLosses != 1 || ch.LiveNodes != 3 {
		t.Fatalf("health = %+v", ch)
	}
}

func TestTotalRangeLossReturnsTypedPartial(t *testing.T) {
	cols, expect := testRelation(9000)
	total := expect(0, 8999)
	r := newRouter(t, Options{Shards: 4, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}

	// Kill every replica of partition 0, leaving at least one node alive.
	r.mu.RLock()
	part := r.tables["ev"].parts[0]
	r.mu.RUnlock()
	for _, nid := range part.replicas {
		if err := r.KillNode(nid); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := r.Submit(context.Background(), scanReq("ev", 0, 8999))
	if !errors.Is(err, errs.ErrPartialResult) {
		t.Fatalf("total range loss returned %v, want ErrPartialResult", err)
	}
	if !resp.Partial {
		t.Fatal("response must be marked Partial")
	}

	// The partial answer must be exactly the covered stripes' sum — never
	// a silent wrong total.
	lostLo := int64(0)
	lostHi := int64(part.rows - 1) // partition 0 is the first contiguous stripe
	wantPartial := total - expect(lostLo, lostHi)
	if resp.Sum != wantPartial {
		t.Fatalf("partial sum = %d, want exactly the covered stripes' %d", resp.Sum, wantPartial)
	}
	wantCovered := 1 - float64(part.rows)/9000
	if math.Abs(resp.CoveredFraction-wantCovered) > 1e-9 {
		t.Fatalf("covered fraction = %v, want %v", resp.CoveredFraction, wantCovered)
	}
	if ch := r.ClusterHealth(); ch.Partials == 0 {
		t.Fatal("partial not counted in cluster health")
	}
}

func TestRecoveryRereplicatesFromSurvivingStore(t *testing.T) {
	cols, expect := testRelation(6000)
	want := expect(0, 5999)
	stores := openStores(t, 3)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: stores})

	// Node 1 is down while the table arrives: its store never sees its
	// stripes, so recovery MUST copy them from the surviving replicas'
	// durable stores — the node's own replay has nothing to offer.
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	// Cluster still answers exactly from the surviving replicas.
	resp, err := r.Submit(context.Background(), scanReq("ev", 0, 5999))
	if err != nil || resp.Sum != want {
		t.Fatalf("scan with node down: sum=%d err=%v, want %d", resp.Sum, err, want)
	}

	if err := r.RecoverNode(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	live := r.LiveNodes()
	if len(live) != 3 {
		t.Fatalf("live after recovery = %v", live)
	}

	// The revived node holds its assigned stripes again: kill the OTHER
	// replica of each of its partitions and the data must still be there.
	r.mu.RLock()
	meta := r.tables["ev"]
	nodes := r.nodes
	r.mu.RUnlock()
	for _, part := range meta.parts {
		if contains(part.replicas, 1) {
			if !holdsStripe(nodes[1], part.derived) {
				t.Fatalf("revived node 1 missing stripe %s after re-replication", part.derived)
			}
		}
	}
	resp, err = r.Submit(context.Background(), scanReq("ev", 0, 5999))
	if err != nil || resp.Sum != want {
		t.Fatalf("scan after recovery: sum=%d err=%v, want %d", resp.Sum, err, want)
	}
	if ch := r.ClusterHealth(); ch.Rereplications == 0 {
		t.Fatal("recovery performed no re-replications")
	}
}

// TestRereplicationChargesEncodedBytes pins what a stripe copy costs the
// cluster budget: the encoded blocks that cross the fabric and stay resident,
// not rows × columns × 8. A 2000-row × 2 stripe is 32000 raw bytes and about
// 4.6 KB encoded; under a 16 KiB budget the copy must be granted (it was
// denied when the charge assumed raw columns) and must still be accounted.
func TestRereplicationChargesEncodedBytes(t *testing.T) {
	cols, expect := testRelation(6000)
	stores := openStores(t, 3)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: stores,
		Memory: mem.Config{BudgetBytes: 16 << 10, PerQueryBytes: 1 << 10}})
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if err := r.RecoverNode(context.Background(), 1); err != nil {
		t.Fatalf("re-replication under a budget above the encoded stripe: %v", err)
	}
	stripe, err := store.TableFromCols("s", [][]int64{cols[0][:2000], cols[1][:2000]})
	if err != nil {
		t.Fatal(err)
	}
	peak := r.gov.Stats().PeakBytes
	if raw := int64(2 * 2000 * 8); peak < stripe.Bytes() || peak >= raw {
		t.Fatalf("budget peak %d, want at least the encoded stripe (%d) and under the raw one (%d)", peak, stripe.Bytes(), raw)
	}
	if ch := r.ClusterHealth(); ch.Rereplications == 0 {
		t.Fatal("recovery performed no re-replications")
	}
	if resp, err := r.Submit(context.Background(), scanReq("ev", 0, 5999)); err != nil || resp.Sum != expect(0, 5999) {
		t.Fatalf("scan after recovery: sum=%d err=%v, want %d", resp.Sum, err, expect(0, 5999))
	}
}

func TestChaosTickIsSeededAndSpares(t *testing.T) {
	mk := func() *Router {
		return newRouter(t, Options{
			Shards: 4, Replicas: 2,
			Faults: fault.New(fault.Config{Seed: 7, NodeLossProb: 0.9}),
		})
	}
	a, b := mk(), mk()
	var killsA, killsB []int
	for tick := 0; tick < 6; tick++ {
		killsA = append(killsA, a.ChaosTick(context.Background())...)
		killsB = append(killsB, b.ChaosTick(context.Background())...)
	}
	if len(killsA) != len(killsB) {
		t.Fatalf("same seed, different kill counts: %v vs %v", killsA, killsB)
	}
	for i := range killsA {
		if killsA[i] != killsB[i] {
			t.Fatalf("same seed, different kill order: %v vs %v", killsA, killsB)
		}
	}
	// Even at p=0.9 over many ticks the tick never kills the last node.
	if len(a.LiveNodes()) < 1 {
		t.Fatal("chaos tick killed the whole cluster")
	}
}

func TestKillAndRecoverIdempotent(t *testing.T) {
	stores := openStores(t, 2)
	r := newRouter(t, Options{Shards: 2, Replicas: 2, Stores: stores})
	if err := r.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if err := r.KillNode(0); err != nil {
		t.Fatal(err) // second kill is a no-op
	}
	if err := r.RecoverNode(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.RecoverNode(context.Background(), 0); err != nil {
		t.Fatal(err) // second recovery is a no-op
	}
	if got := len(r.LiveNodes()); got != 2 {
		t.Fatalf("live = %d, want 2", got)
	}
	if err := r.KillNode(9); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("out-of-range kill: %v, want ErrInvalidInput", err)
	}
}

// TestFailingNodeSortsAfterHealthyReplica pins the router's breaker policy
// across cooldowns: a live node whose route tripped and whose half-open
// probe has failed at every cooldown since stays ordered behind its healthy
// replica (the failed probe re-arms the cooldown), yet is never dropped —
// it is still the candidate when it is the last replica standing. The
// failure times are explicit and the cooldown an hour, so no sleep decides
// the outcome.
func TestFailingNodeSortsAfterHealthyReplica(t *testing.T) {
	r := newRouter(t, Options{Shards: 2, Replicas: 2})
	bad := r.nodes[1]
	bad.brk = breaker.New(1, time.Hour)
	now := time.Now()
	bad.brk.OnFailure(now.Add(-150 * time.Minute)) // trips
	bad.brk.OnFailure(now.Add(-90 * time.Minute))  // probe after the first cooldown fails
	bad.brk.OnFailure(now.Add(-30 * time.Minute))  // probe after the second fails
	for i := 0; i < 4; i++ {                       // every rotor position
		c := r.candidates([]int{0, 1}, now)
		if len(c) != 2 || c[0].id != 0 || c[1] != bad {
			t.Fatalf("rotation %d: node failing every probe not ordered last: %v then %v", i, c[0].id, c[1].id)
		}
	}
	if err := r.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if c := r.candidates([]int{0, 1}, now); len(c) != 1 || c[0] != bad {
		t.Fatalf("last replica standing dropped from candidates: %v", c)
	}
}

// TestRecoveryReplacesStaleReplayedStripes is the silent-wrong-sum
// reproducer: a node that was down while its table was re-registered comes
// back with the OLD stripes on its own disk, under the same derived names.
// Recovery must take the stripes from the surviving replicas, not trust the
// replay — otherwise losing the other replica next serves v1 rows inside a
// v2 total, non-partial and with a nil error.
func TestRecoveryReplacesStaleReplayedStripes(t *testing.T) {
	for _, second := range []int{0, 2} {
		v1, _ := testRelation(6000)
		v2, expect := testRelation(6000)
		for i := range v2[1] {
			v2[1][i] *= 3
		}
		want := expect(0, 5999)

		r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3)})
		if err := r.Register("ev", v1); err != nil {
			t.Fatal(err)
		}
		for _, n := range r.nodes {
			if _, err := n.server().Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.KillNode(1); err != nil {
			t.Fatal(err)
		}
		if err := r.Register("ev", v2); err != nil {
			t.Fatal(err)
		}
		if err := r.RecoverNode(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if err := r.KillNode(second); err != nil {
			t.Fatal(err)
		}
		resp, err := r.Submit(context.Background(), scanReq("ev", 0, 5999))
		if err != nil || resp.Partial {
			t.Fatalf("after losing node %d: partial=%v err=%v, want a full answer", second, resp.Partial, err)
		}
		if resp.Sum != want {
			t.Fatalf("after losing node %d: sum = %d, want %d — revived node served a stale stripe", second, resp.Sum, want)
		}
	}
}
