package shard

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"hwstar/internal/breaker"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/serve"
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
		if slices.Contains(part.replicas, 1) {
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

// TestKillMidReadSkipsTheNode: KillNode clears a node's liveness and then its
// server without the router lock, so a reader that checks liveness and then
// reads the server can see alive=true with no server. Register and Workers
// must treat that node as dead, not dereference nil.
func TestKillMidReadSkipsTheNode(t *testing.T) {
	cols, expect := testRelation(3000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	n := r.nodes[1]
	srv := n.server()
	n.mu.Lock()
	n.srv = nil // the interleaving: alive still true, server already gone
	n.mu.Unlock()
	t.Cleanup(func() { // before the router's Close, so the server is closed
		n.mu.Lock()
		n.srv = srv
		n.mu.Unlock()
	})

	if got, want := r.Workers(), 2*4; got != want {
		t.Fatalf("workers = %d, want %d (the half-killed node's left out)", got, want)
	}
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if holdsStripe(&node{srv: srv}, "ev@1") {
		t.Fatal("the half-killed node's server was given a stripe")
	}
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if resp, err := r.Submit(context.Background(), scanReq("ev", 0, 2999)); err != nil || resp.Sum != expect(0, 2999) {
		t.Fatalf("scan: sum=%d err=%v, want %d", resp.Sum, err, expect(0, 2999))
	}
}

// TestRevivedNodeKeepsTenantCaps: a tenant memory cap binds on every node,
// including one killed and recovered after the cap was set and one that was
// dead when it was set, and one revived while caps are being set: a revived
// node's server is built with the caps the router was given.
func TestRevivedNodeKeepsTenantCaps(t *testing.T) {
	ctx := context.Background()
	const capBytes = 1 << 20
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3),
		Shard: serve.Options{Memory: mem.Config{BudgetBytes: 64 << 20}}})
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	r.SetTenantMemCap("acme", capBytes)
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		if err := r.RecoverNode(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	checkCaps := func(want int64) {
		t.Helper()
		for _, n := range r.nodes {
			if got := n.server().Health().Memory.TenantCaps["acme"]; got != want {
				t.Errorf("node %d: tenant cap %d, want %d", n.id, got, want)
			}
		}
	}
	checkCaps(capBytes)

	// Caps set while a node is being revived: whichever way each set and
	// the revival interleave, every node ends on the last cap set.
	const sets = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= sets; i++ {
			r.SetTenantMemCap("acme", capBytes+i)
		}
	}()
	for i := 0; i < 5; i++ {
		if err := r.KillNode(0); err != nil {
			t.Fatal(err)
		}
		if err := r.RecoverNode(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	checkCaps(capBytes + sets)
}

// TestKilledNodeNeverCommits pins that a kill is a crash-stop: the revived
// node shares the dead one's store, so the dead server, stopped in the
// background after its successor has opened that store, must commit
// nothing to it. The reaper is held until the successor has checkpointed,
// then let go; the store must still be at the successor's version.
func TestKilledNodeNeverCommits(t *testing.T) {
	ctx := context.Background()
	cols, _ := testRelation(9000)
	hold := make(chan struct{})
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3), reapHold: hold})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	<-hold // the reaper holds the dead server, not yet stopped
	release := sync.OnceFunc(func() { hold <- struct{}{} })
	t.Cleanup(release) // before the router's Close, which waits for the reaper
	if err := r.RecoverNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	n := r.nodes[1]
	if _, err := n.server().Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	v := n.st.Version()
	release()
	r.reapWG.Wait()
	if got := n.st.Version(); got != v {
		t.Fatalf("the killed server committed manifest v%d over its successor's v%d", got, v)
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
	// Every rotation, appended behind another sub's candidate.
	for rot := 0; rot < 4; rot++ {
		c := candidates([]try{{node: r.nodes[0]}}, r.nodes, []int{0, 1}, rot, now)
		if len(c) != 3 || c[1].node.id != 0 || c[2].node != bad {
			t.Fatalf("rotation %d: node failing every probe not ordered last: %d candidates, then %v", rot, len(c), c[len(c)-1].node.id)
		}
	}
	if err := r.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if c := candidates(nil, r.nodes, []int{0, 1}, 0, now); len(c) != 1 || c[0].node != bad {
		t.Fatalf("last replica standing dropped from candidates: %d candidates", len(c))
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
