package shard

import (
	"context"
	"maps"
	"reflect"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/mem"
	"hwstar/internal/serve"
)

// int64Fields returns v's exported int64 fields by name: the counter-shaped
// part of a health struct, discovered rather than listed.
func int64Fields(v any) map[string]int64 {
	rv := reflect.ValueOf(v)
	out := make(map[string]int64)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.IsExported() && f.Type.Kind() == reflect.Int64 {
			out[f.Name] = rv.Field(i).Int()
		}
	}
	return out
}

// TestRouterHealthIsSumOfNodes pins the rule that replaced the hand-copied
// sum ladders: every exported int64 field of Router.Health() equals the sum
// over the live nodes' own Health, found by reflection so a field added to
// serve.Health later is covered unedited. The non-additive fields are checked
// against their documented rules.
func TestRouterHealthIsSumOfNodes(t *testing.T) {
	ctx := context.Background()
	cols, _ := testRelation(30_000)
	// No hedging: a cancelled hedge loser settles its counters after Submit
	// returns, which would race the two snapshots compared below.
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3), hedgeDelay: time.Hour})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	traffic := func() {
		t.Helper()
		for i, tenant := range []string{"", "acme", "acme", "zeta.co"} {
			req := scanReq("ev", int64(i*1000), int64(20_000+i*1000))
			req.Tenant = tenant
			if _, err := r.Submit(ctx, req); err != nil {
				t.Fatal(err)
			}
			gs := serve.Request{Op: serve.OpGroupSum, Tenant: tenant, Strategy: agg.StrategyLocalMerge,
				Keys: []int64{1, 2, 1, 3}, Vals: []int64{10, 20, 30, 40}}
			if _, err := r.Submit(ctx, gs); err != nil {
				t.Fatal(err)
			}
		}
	}
	traffic()
	for _, n := range r.nodes {
		if _, err := n.srv.Load().Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.KillNode(1); err != nil {
		t.Fatal(err)
	}
	traffic()
	if err := r.RecoverNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	traffic()

	got := r.Health()
	ch := r.ClusterHealth()
	if ch.LiveNodes != 3 || ch.NodeLosses != 1 {
		t.Fatalf("cluster after kill+recover: %d live, %d losses", ch.LiveNodes, ch.NodeLosses)
	}
	want := make(map[string]int64)
	minVersion, lastCkpt := ^uint64(0), uint64(0)
	for _, nh := range ch.Nodes {
		for name, v := range int64Fields(nh.Serve) {
			want[name] += v
		}
		minVersion = min(minVersion, nh.Serve.StoreVersion)
		lastCkpt = max(lastCkpt, nh.Serve.LastCheckpoint.Version)
	}
	gotFields := int64Fields(got)
	if !reflect.DeepEqual(gotFields, want) {
		t.Errorf("Router.Health int64 fields\n got %v\nwant %v (sum of live nodes)", gotFields, want)
	}
	for _, must := range []string{"Admitted", "Completed", "VecPasses", "Checkpoints", "ReplayedTables"} {
		if want[must] == 0 {
			t.Errorf("traffic left %s at 0 on every node: the sum check is vacuous for it", must)
		}
	}
	if !got.Durable || got.StoreVersion != minVersion || minVersion < 1 {
		t.Errorf("StoreVersion = %d (durable %v), want the lowest live node's %d, >= 1", got.StoreVersion, got.Durable, minVersion)
	}
	if got.LastCheckpoint.Version != lastCkpt || lastCkpt < minVersion {
		t.Errorf("LastCheckpoint = %+v, want the furthest-along node's v%d", got.LastCheckpoint, lastCkpt)
	}
	if got.Faults["node-loss"] != 1 {
		t.Errorf("Faults = %v, want node-loss 1", got.Faults)
	}
}

// TestRouterStateDegradedWhileNodeDead: the router's State is "degraded"
// exactly while a node is dead, and "ok" again once it has recovered.
func TestRouterStateDegradedWhileNodeDead(t *testing.T) {
	ctx := context.Background()
	cols, _ := testRelation(9000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, Stores: openStores(t, 3)})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	if s := r.Health().State; s != "ok" {
		t.Fatalf("state with every node alive = %q, want ok", s)
	}
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	if s := r.Health().State; s != "degraded" {
		t.Fatalf("state with node 2 dead = %q, want degraded", s)
	}
	if err := r.RecoverNode(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if s := r.Health().State; s != "ok" {
		t.Fatalf("state after node 2 recovered = %q, want ok", s)
	}
}

// TestRouterHealthSumsNodeMemory: the router reports the memory its nodes
// govern, each field the sum over the live nodes. The template budget is the
// cluster's, split evenly, so the summed budget is the template's; a tenant
// cap is the cluster's too, so the summed caps are the cap.
func TestRouterHealthSumsNodeMemory(t *testing.T) {
	const budget, tenantCap = 3 << 20, 3 << 18
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour,
		Shard: serve.Options{Memory: mem.Config{BudgetBytes: budget}}})
	r.SetTenantMemCap("acme", tenantCap)
	for i, tenant := range []string{"", "acme", "acme", "zeta.co"} {
		gs := serve.Request{Op: serve.OpGroupSum, Tenant: tenant, Strategy: agg.StrategyLocalMerge,
			Keys: []int64{1, 2, 1, int64(i)}, Vals: []int64{10, 20, 30, 40}}
		if _, err := r.Submit(context.Background(), gs); err != nil {
			t.Fatal(err)
		}
	}
	// A node releases a reservation after its answer is sent: wait for the
	// last one to settle, so the two snapshots below agree.
	for deadline := time.Now().Add(5 * time.Second); r.Health().Memory.Reservations != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("reservations never settled: %+v", r.Health().Memory)
		}
		time.Sleep(time.Millisecond)
	}

	got := r.Health().Memory
	var want mem.Stats
	caps, inUse := map[string]int64{}, map[string]int64{}
	for _, nh := range r.ClusterHealth().Nodes {
		m := nh.Serve.Memory
		want.BudgetBytes += m.BudgetBytes
		want.InUseBytes += m.InUseBytes
		want.PeakBytes += m.PeakBytes
		want.Reservations += m.Reservations
		want.Denied += m.Denied
		want.OOMKills += m.OOMKills
		for k, v := range m.TenantCaps {
			caps[k] += v
		}
		for k, v := range m.TenantInUse {
			inUse[k] += v
		}
	}
	gotCaps, gotInUse := got.TenantCaps, got.TenantInUse
	got.TenantCaps, got.TenantInUse = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Health().Memory = %+v, want the nodes' sum %+v", got, want)
	}
	if !maps.Equal(gotCaps, caps) || !maps.Equal(gotInUse, inUse) {
		t.Errorf("tenant caps %v / in use %v, want the nodes' sums %v / %v", gotCaps, gotInUse, caps, inUse)
	}
	if got.BudgetBytes != budget {
		t.Errorf("BudgetBytes = %d, want the template's cluster budget %d", got.BudgetBytes, budget)
	}
	if gotCaps["acme"] != tenantCap {
		t.Errorf("acme's caps sum to %d, want its cluster cap %d", gotCaps["acme"], tenantCap)
	}
	if got.PeakBytes <= 0 {
		t.Errorf("PeakBytes = %d after governed group-sums, want > 0", got.PeakBytes)
	}
}
