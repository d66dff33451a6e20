package frontend

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/hw"
	"hwstar/internal/shard"
)

// newShardEnv boots a replicated shard.Router of the given shard count as the
// frontend's backend, registered with an n-row relation whose range sums are
// exactly computable.
func newShardEnv(t *testing.T, n, shards int) (*testEnv, *shard.Router, func(lo, hi int64) int64) {
	t.Helper()
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i%97) + 1
	}
	expect := func(lo, hi int64) int64 {
		var sum int64
		for i := range keys {
			if keys[i] >= lo && keys[i] <= hi {
				sum += vals[i]
			}
		}
		return sum
	}
	router, err := shard.New(context.Background(), hw.Server2S(), shard.Options{Shards: shards, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })
	if err := router.Register("facts", [][]int64{keys, vals}); err != nil {
		t.Fatal(err)
	}
	fe, err := New(Config{
		Backend: router,
		Tenants: []TenantConfig{{ID: "acme", Key: "k1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(fe.Handler())
	t.Cleanup(hs.Close)
	return &testEnv{t: t, fe: fe, hs: hs}, router, expect
}

// TestShardBackendServesQueries: the frontend runs unmodified against a
// shard.Router — same wire protocol, same session flow — and a healthy
// cluster's answers are exact and unflagged.
func TestShardBackendServesQueries(t *testing.T) {
	env, _, expect := newShardEnv(t, 8000, 4)
	tok := env.open("acme", "k1")

	status, _, raw := env.do("POST", "/v1/query", tok, v1.QueryRequest{
		Op: v1.OpScan, Table: "facts",
		Scan: &v1.ScanArgs{FilterCol: 0, Lo: 100, Hi: 6000, AggCol: 1},
	})
	if status != http.StatusOK {
		t.Fatalf("query: HTTP %d: %s", status, raw)
	}
	var qr v1.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if want := expect(100, 6000); qr.Result.Sum != want {
		t.Fatalf("sum = %d, want %d", qr.Result.Sum, want)
	}
	if qr.Partial || qr.CoveredFraction != 0 {
		t.Fatalf("healthy cluster flagged partial: %s", raw)
	}

	// Health aggregates across shards.
	status, _, raw = env.do("GET", "/v1/health", "", nil)
	if status != http.StatusOK {
		t.Fatalf("health: HTTP %d: %s", status, raw)
	}
	var hr v1.HealthResponse
	if err := json.Unmarshal(raw, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Completed == 0 || hr.Workers == 0 {
		t.Fatalf("aggregated health empty: %s", raw)
	}
}

// TestShardBackendPartialResultOnWire: when every replica of a range is
// down, the wire answer is HTTP 200 with partial=true, covered_fraction,
// and a sum that is exactly the covered stripes' total — never a silent
// wrong sum, never a 5xx hiding a usable answer.
func TestShardBackendPartialResultOnWire(t *testing.T) {
	const n = 9000
	env, router, expect := newShardEnv(t, n, 4)
	tok := env.open("acme", "k1")

	parts, err := router.Partitions("facts")
	if err != nil {
		t.Fatal(err)
	}
	killed := make(map[int]bool)
	for _, nid := range parts[0].Replicas {
		if err := router.KillNode(nid); err != nil {
			t.Fatal(err)
		}
		killed[nid] = true
	}
	// Killing partition 0's replicas may take other partitions down with
	// them (their replica pair can be the same two nodes); every stripe
	// whose replicas are ALL dead is lost. Partitions are contiguous row
	// stripes in partition order, so prefix sums give each stripe's range.
	var lostSum int64
	lost := 0
	lo := int64(0)
	for _, p := range parts {
		hi := lo + int64(p.Rows) - 1
		allDead := true
		for _, nid := range p.Replicas {
			if !killed[nid] {
				allDead = false
			}
		}
		if allDead {
			lostSum += expect(lo, hi)
			lost += p.Rows
		}
		lo = hi + 1
	}
	if lost <= 0 || lost >= n {
		t.Fatalf("lost stripes cover %d rows, want a proper subset of %d", lost, n)
	}

	status, _, raw := env.do("POST", "/v1/query", tok, v1.QueryRequest{
		Op: v1.OpScan, Table: "facts",
		Scan: &v1.ScanArgs{FilterCol: 0, Lo: 0, Hi: n - 1, AggCol: 1},
	})
	if status != http.StatusOK {
		t.Fatalf("partial query must be HTTP 200, got %d: %s", status, raw)
	}
	var qr v1.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial {
		t.Fatalf("partial not flagged on the wire: %s", raw)
	}
	wantSum := expect(0, n-1) - lostSum
	if qr.Result.Sum != wantSum {
		t.Fatalf("partial sum = %d, want exactly the covered stripes' %d", qr.Result.Sum, wantSum)
	}
	wantCovered := 1 - float64(lost)/n
	if diff := qr.CoveredFraction - wantCovered; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("covered_fraction = %v, want %v", qr.CoveredFraction, wantCovered)
	}
}

// TestTenantCountedOncePerQuery: behind a router a scan fans out to every
// stripe, but the tenant's ledger counts what the tenant sent — one admitted
// and completed query, one latency and one cycles sample per scan — not one
// per stripe sub-request.
func TestTenantCountedOncePerQuery(t *testing.T) {
	env, _, _ := newShardEnv(t, 9000, 3)
	tok := env.open("acme", "k1")
	const queries = 5
	for i := 0; i < queries; i++ {
		status, _, raw := env.do("POST", "/v1/query", tok, v1.QueryRequest{
			Op: v1.OpScan, Table: "facts",
			Scan: &v1.ScanArgs{FilterCol: 0, Lo: 0, Hi: 8999, AggCol: 1},
		})
		if status != http.StatusOK {
			t.Fatalf("query %d: HTTP %d: %s", i, status, raw)
		}
	}
	status, _, raw := env.do("GET", "/v1/tenants/acme/stats", tok, nil)
	var ts v1.TenantStats
	if status != http.StatusOK || json.Unmarshal(raw, &ts) != nil {
		t.Fatalf("stats: HTTP %d: %s", status, raw)
	}
	if ts.Admitted != queries || ts.Completed != queries || ts.LatencyP50Ms <= 0 {
		t.Fatalf("stats after %d scans over 3 stripes: %s", queries, raw)
	}
	for _, name := range []string{"latency_ms", "cycles_per_query"} {
		if got := env.fe.reg.Histogram("frontend.tenant.acme." + name).Stats().Count; got != queries {
			t.Errorf("%s holds %d samples after %d scans", name, got, queries)
		}
	}
}
