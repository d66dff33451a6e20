package shard

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"hwstar/internal/agg"
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
	cols, _ := testRelation(8000)
	req := straddleReq("ev")
	want := oracleSum(cols, req.Query)
	r := newRouter(t, Options{Shards: 4, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Submit(context.Background(), req)
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
	cols, _ := testRelation(9000)
	req := straddleReq("ev")
	total := oracleSum(cols, req.Query)
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

	resp, err := r.Submit(context.Background(), req)
	if !errors.Is(err, errs.ErrPartialResult) {
		t.Fatalf("total range loss returned %v, want ErrPartialResult", err)
	}
	if !resp.Partial {
		t.Fatal("response must be marked Partial")
	}

	// The partial answer must be exactly the covered stripes' sum — never
	// a silent wrong total. Partition 0 is the first contiguous stripe.
	lost := [][]int64{cols[0][:part.rows], cols[1][:part.rows]}
	wantPartial := total - oracleSum(lost, req.Query)
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
	cols, _ := testRelation(6000)
	req := straddleReq("ev")
	want := oracleSum(cols, req.Query)
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
	resp, err := r.Submit(context.Background(), req)
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
	resp, err = r.Submit(context.Background(), req)
	if err != nil || resp.Sum != want {
		t.Fatalf("scan after recovery: sum=%d err=%v, want %d", resp.Sum, err, want)
	}
	if ch := r.ClusterHealth(); ch.Rereplications == 0 {
		t.Fatal("recovery performed no re-replications")
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

// TestPublishKeepsTheFirstServer: a node has one server at a time. A server
// published onto a node that already has one is stopped, and the node keeps
// the first.
func TestPublishKeepsTheFirstServer(t *testing.T) {
	r := newRouter(t, Options{Shards: 2, Replicas: 2})
	n := r.nodes[0]
	first := n.srv.Load()
	second, err := r.buildServer(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.publish(n, second); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("publish onto a live node: %v, want ErrClosed", err)
	}
	if n.srv.Load() != first {
		t.Fatal("publish replaced a live node's server")
	}
	if err := second.Kill(); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("the unpublished server was left running (Kill: %v)", err)
	}
}

// TestRecoverRacingCloseLeavesNoServer: a RecoverNode racing Router.Close
// either publishes before Close stops every node's server or sees the router
// closed and stops its own, so once both return no node's server runs. Odd
// rounds start the recovery only after Close has returned, the order in
// which a server installed without looking at Close is left running.
func TestRecoverRacingCloseLeavesNoServer(t *testing.T) {
	cols, _ := testRelation(3000)
	for round := 0; round < 20; round++ {
		r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3)})
		if err := r.Register("ev", cols); err != nil {
			t.Fatal(err)
		}
		if err := r.KillNode(1); err != nil {
			t.Fatal(err)
		}
		recovered := make(chan error, 1)
		revive := func() { recovered <- r.RecoverNode(context.Background(), 1) }
		if round%2 == 0 {
			go revive()
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			go revive()
		}
		if err := <-recovered; err != nil && !errors.Is(err, errs.ErrClosed) {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		for _, n := range r.nodes {
			if srv := n.srv.Load(); srv != nil && srv.Kill() == nil {
				t.Fatalf("round %d: node %d's server was left running after Close", round, n.id)
			}
		}
	}
}

// TestRevivedNodeKeepsTenantCaps: a tenant memory cap binds on every node at
// its share (cap/3 here), including one killed and recovered after the cap
// was set and one that was dead when it was set, and one revived while caps
// are being set: a revived node's server is built with its share of the caps
// the router was given.
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
			if got := n.srv.Load().Health().Memory.TenantCaps["acme"]; got != want {
				t.Errorf("node %d: tenant cap %d, want %d", n.id, got, want)
			}
		}
	}
	checkCaps(capBytes / 3)

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
	checkCaps((capBytes + sets) / 3)
}

// TestKilledNodeNeverCommits pins that a kill is a crash-stop: the revived
// node shares the dead one's store, so the dead server must have stopped by
// the time KillNode returns. It then answers Kill with ErrClosed, and the
// successor's checkpoint stays the store's last version.
func TestKilledNodeNeverCommits(t *testing.T) {
	ctx := context.Background()
	cols, _ := testRelation(9000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3)})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	n := r.nodes[1]
	dead := n.srv.Load()
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := dead.Kill(); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("the killed server was still running after KillNode returned (Kill: %v)", err)
	}
	if err := r.RecoverNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	cp, err := n.srv.Load().Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.st.Version(); got != cp.Version {
		t.Fatalf("store at manifest v%d, want the successor's checkpoint v%d", got, cp.Version)
	}
}

// TestKillRacingCloseLeavesNoServer: a KillNode racing Router.Close stops
// node 1's server whichever of them reaches it first, and neither returns
// before it has stopped, so once both return the old server answers Kill
// with ErrClosed.
func TestKillRacingCloseLeavesNoServer(t *testing.T) {
	for round := 0; round < 200; round++ {
		r := newRouter(t, Options{Shards: 3, Replicas: 2})
		old := r.nodes[1].srv.Load()
		killed := make(chan error, 1)
		go func() { killed <- r.KillNode(1) }()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-killed; err != nil {
			t.Fatal(err)
		}
		if err := old.Kill(); !errors.Is(err, errs.ErrClosed) {
			t.Fatalf("round %d: node 1's server was left running after KillNode and Close (Kill: %v)", round, err)
		}
	}
}

// TestCandidatesRotateOverLiveReplicas: a sub's candidates are its live
// replicas in rotation order from rot, appended behind the candidates
// already in dst. A dead node is left out, and the last live replica kept.
func TestCandidatesRotateOverLiveReplicas(t *testing.T) {
	r := newRouter(t, Options{Shards: 3, Replicas: 3})
	replicas := []int{0, 1, 2}
	ids := func(c []try) []int {
		out := make([]int, len(c))
		for i := range c {
			out[i] = c[i].node.id
		}
		return out
	}
	for rot := 0; rot < 6; rot++ {
		got := ids(candidates([]try{{node: r.nodes[2]}}, r.nodes, replicas, rot))
		want := []int{2, rot % 3, (rot + 1) % 3, (rot + 2) % 3}
		if !slices.Equal(got, want) {
			t.Fatalf("rotation %d: candidates %v, want %v", rot, got, want)
		}
	}
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for rot := 0; rot < 3; rot++ {
		got := ids(candidates(nil, r.nodes, replicas, rot))
		want := []int{2, 0}
		if rot == 0 {
			want = []int{0, 2}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("rotation %d with node 1 dead: candidates %v, want %v", rot, got, want)
		}
	}
	if err := r.KillNode(0); err != nil {
		t.Fatal(err)
	}
	for rot := 0; rot < 3; rot++ {
		if got := ids(candidates(nil, r.nodes, replicas, rot)); !slices.Equal(got, []int{2}) {
			t.Fatalf("rotation %d: last live replica dropped: candidates %v", rot, got)
		}
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
		v2, _ := testRelation(6000)
		for i := range v2[1] {
			v2[1][i] *= 3
		}
		req := straddleReq("ev")
		want := oracleSum(v2, req.Query)

		r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3)})
		if err := r.Register("ev", v1); err != nil {
			t.Fatal(err)
		}
		for _, n := range r.nodes {
			if _, err := n.srv.Load().Checkpoint(context.Background()); err != nil {
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
		resp, err := r.Submit(context.Background(), req)
		if err != nil || resp.Partial {
			t.Fatalf("after losing node %d: partial=%v err=%v, want a full answer", second, resp.Partial, err)
		}
		if resp.Sum != want {
			t.Fatalf("after losing node %d: sum = %d, want %d — revived node served a stale stripe", second, resp.Sum, want)
		}
	}
}

// TestInvalidRequestSettlesWithoutFailover: a request every node refuses as
// invalid is the client's fault, not a node's. Its sub settles on the first
// answer, with no failover to a replica that would refuse it too.
func TestInvalidRequestSettlesWithoutFailover(t *testing.T) {
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	reqs := make([]serve.Request, 0, 6)
	for i := 0; i < 5; i++ {
		reqs = append(reqs, serve.Request{Op: serve.OpGroupSum, Keys: []int64{1, 2, 3}, Vals: []int64{1, 2}, Strategy: agg.StrategyGlobal})
	}
	bogus := serve.Request{Op: serve.OpJoin, Algorithm: "bogus"}
	bogus.Join.BuildKeys, bogus.Join.BuildVals = []int64{1}, []int64{1}
	reqs = append(reqs, bogus)
	for i, req := range reqs {
		if _, err := r.Submit(context.Background(), req); !errors.Is(err, errs.ErrInvalidInput) {
			t.Fatalf("request %d: err = %v, want ErrInvalidInput", i, err)
		}
	}
	ch := r.ClusterHealth()
	if ch.Failovers != 0 {
		t.Fatalf("%d failovers for invalid requests, want 0", ch.Failovers)
	}
	var invalid int64
	for _, n := range r.nodes {
		invalid += n.srv.Load().Metrics().Counters()["serve.invalid"]
	}
	if invalid != int64(len(reqs)) {
		t.Fatalf("nodes counted %d invalid requests, want %d (one hop each)", invalid, len(reqs))
	}
}

// TestEmptyRecoveredNodeFailsOver: a memory-only node has no durable copy
// to recover, so it recovers its stripes from a live replica: both of node
// 1's stripes are re-replicated, and no scan needs a failover. A node
// recovered after both of a stripe's replicas died has no copy of that
// stripe and refuses it as unknown; the refusal fails over to nobody, and
// the scan degrades to a typed partial.
func TestEmptyRecoveredNodeFailsOver(t *testing.T) {
	ctx := context.Background()
	cols, _ := testRelation(6000)
	req := straddleReq("ev")
	want := oracleSum(cols, req.Query)
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := r.RecoverNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if ch := r.ClusterHealth(); ch.Rereplications != 2 {
		t.Fatalf("%d stripes re-replicated onto the recovered node, want its 2", ch.Rereplications)
	}
	for i := 0; i < 24; i++ {
		resp, err := r.Submit(ctx, req)
		if err != nil || resp.Sum != want {
			t.Fatalf("scan %d after a recovery: sum=%d err=%v, want %d", i, resp.Sum, err, want)
		}
	}
	if ch := r.ClusterHealth(); ch.Failovers != 0 {
		t.Fatalf("%d failovers after a recovery from a live replica, want 0", ch.Failovers)
	}
	// Partition 1 lives on nodes 1 and 2: with both dead, node 1 recovers
	// with no copy of it.
	for _, id := range []int{1, 2} {
		if err := r.KillNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RecoverNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Submit(ctx, req)
	if !errors.Is(err, errs.ErrPartialResult) || !resp.Partial {
		t.Fatalf("scan with a stripe on no holder: partial=%v err=%v, want a partial", resp.Partial, err)
	}
}

// TestMemoryShedFailsOverToEveryNode: a node that sheds for want of memory
// is refusing work another node may have room for. Each node's share of the
// cluster budget (64 B) is below what even the deepest spill fan-out of a
// 4,096-group table needs, so every node answers every group-sum
// ErrMemoryPressure: each request fails over across all three nodes and ends
// in ErrMemoryPressure.
func TestMemoryShedFailsOverToEveryNode(t *testing.T) {
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour,
		Shard: serve.Options{Memory: mem.Config{BudgetBytes: 3 * 64}}})
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(i)
	}
	for i := 0; i < 4; i++ {
		_, err := r.Submit(context.Background(), serve.Request{Op: serve.OpGroupSum, Strategy: agg.StrategyLocalMerge,
			Keys: keys, Vals: keys})
		if !errors.Is(err, errs.ErrMemoryPressure) {
			t.Fatalf("group-sum %d: %v, want ErrMemoryPressure", i, err)
		}
	}
	ch := r.ClusterHealth()
	if ch.Failovers != 8 {
		t.Errorf("failovers = %d, want 8 (each group-sum tried all 3 nodes)", ch.Failovers)
	}
}
