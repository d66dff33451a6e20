package shard

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hwstar/internal/agg"
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
// sum ladders: every exported int64 field of Router.Health() — and of each
// tenant's slice — equals the sum over the live nodes' own Health, found by
// reflection so a field added to serve.Health later is covered unedited. The
// non-additive fields are checked against their documented rules.
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
		if _, err := n.server().Checkpoint(ctx); err != nil {
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
	wantTenant := make(map[string]map[string]int64)
	minVersion, lastCkpt := ^uint64(0), uint64(0)
	for _, nh := range ch.Nodes {
		for name, v := range int64Fields(nh.Serve) {
			want[name] += v
		}
		for id, th := range nh.Serve.Tenants {
			if wantTenant[id] == nil {
				wantTenant[id] = make(map[string]int64)
			}
			for name, v := range int64Fields(th) {
				wantTenant[id][name] += v
			}
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
	if len(got.Tenants) != 2 || len(wantTenant) != 2 {
		t.Fatalf("tenants: router %d, nodes %d, want 2", len(got.Tenants), len(wantTenant))
	}
	for id, w := range wantTenant {
		// The cap is the one documented non-sum among the tenant int64s
		// (largest across shards); no cap is set here, so it is 0 either way.
		if g := int64Fields(got.Tenants[id]); !reflect.DeepEqual(g, w) {
			t.Errorf("tenant %q int64 fields\n got %v\nwant %v", id, g, w)
		}
		if g, single := int64Fields(r.TenantHealth(id)), int64Fields(got.Tenants[id]); !reflect.DeepEqual(g, single) {
			t.Errorf("TenantHealth(%q) = %v, Health().Tenants = %v", id, g, single)
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

// TestRouterTenantLatencyIsWholeRequest: a tenant's latency behind a Router
// is what it waited for at the router — one sample per request, not one per
// stripe — and it reaches both TenantHealth and Health().Tenants.
func TestRouterTenantLatencyIsWholeRequest(t *testing.T) {
	cols, _ := testRelation(9000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2})
	if err := r.Register("ev", cols); err != nil {
		t.Fatal(err)
	}
	const queries = 5
	for i := 0; i < queries; i++ {
		req := scanReq("ev", 0, 8999)
		req.Tenant = "acme"
		if _, err := r.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for name, th := range map[string]serve.TenantHealth{
		"TenantHealth":   r.TenantHealth("acme"),
		"Health.Tenants": r.Health().Tenants["acme"],
	} {
		if th.LatencyMs.Count != queries || th.LatencyMs.P50 <= 0 || th.CyclesPerQuery.P50 <= 0 {
			t.Errorf("%s: latency %+v cycles %+v, want %d samples with p50 > 0", name, th.LatencyMs, th.CyclesPerQuery, queries)
		}
		if th.Completed < queries {
			t.Errorf("%s: completed %d, want >= %d (per-stripe floor)", name, th.Completed, queries)
		}
	}
}
