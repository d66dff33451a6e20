package frontend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hwstar/internal/fault"
	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/serve"
	"hwstar/internal/table"
	"hwstar/internal/workload"
)

// fakeClock is an adjustable clock for deterministic bucket/TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testEnv is one frontend + engine + httptest server.
type testEnv struct {
	t     *testing.T
	srv   *serve.Server
	fe    *Frontend
	hs    *httptest.Server
	clock *fakeClock
}

// newTestEnv boots an engine with a "facts" relation and a "lineitem" table,
// fronted by the given tenants on a fake clock.
func newTestEnv(t *testing.T, opts serve.Options, tenants []TenantConfig, fcfg Config) *testEnv {
	t.Helper()
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 16
	}
	srv, err := serve.New(hw.Server2S(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cols := [][]int64{
		workload.UniformInts(81, 1<<14, 10000),
		workload.UniformInts(82, 1<<14, 500),
	}
	if err := srv.Register("facts", cols); err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	fcfg.Backend = srv
	fcfg.Tenants = tenants
	fcfg.Now = clock.now
	if fcfg.Lineitems == nil {
		fcfg.Lineitems = map[string]*table.Table{"lineitem": workload.LineItem(83, 2000)}
	}
	fe, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(fe.Handler())
	t.Cleanup(hs.Close)
	return &testEnv{t: t, srv: srv, fe: fe, hs: hs, clock: clock}
}

// do issues one request. body may be a raw string (sent verbatim) or any
// JSON-marshalable value.
func (e *testEnv) do(method, path, token string, body any) (int, http.Header, []byte) {
	e.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.hs.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := e.hs.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// open opens a session and returns the token.
func (e *testEnv) open(tenant, key string) string {
	e.t.Helper()
	status, _, raw := e.do("POST", "/v1/session", "", v1.SessionRequest{Tenant: tenant, Key: key})
	if status != http.StatusOK {
		e.t.Fatalf("session open: HTTP %d: %s", status, raw)
	}
	var sr v1.SessionResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		e.t.Fatal(err)
	}
	return sr.Token
}

// errCode decodes a structured error body's code.
func errCode(t *testing.T, raw []byte) v1.ErrorInfo {
	t.Helper()
	var eb v1.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("error body not JSON: %v: %s", err, raw)
	}
	if eb.Error.Code == "" {
		t.Fatalf("error body missing code: %s", raw)
	}
	return eb.Error
}

func defaultTenants() []TenantConfig {
	return []TenantConfig{
		{ID: "alpha", Key: "alpha-key"},
		{ID: "bravo", Key: "bravo-key", Priority: "batch"},
	}
}

// TestSessionRoutes covers /v1/session open and close.
func TestSessionRoutes(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, defaultTenants(), Config{})

	cases := []struct {
		name       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"ok", v1.SessionRequest{Tenant: "alpha", Key: "alpha-key"}, 200, ""},
		{"bad key", v1.SessionRequest{Tenant: "alpha", Key: "wrong"}, 401, v1.CodeUnauthenticated},
		{"unknown tenant", v1.SessionRequest{Tenant: "nobody", Key: "alpha-key"}, 401, v1.CodeUnauthenticated},
		{"malformed body", `{"tenant": `, 400, v1.CodeInvalidArgument},
		{"unknown field", `{"tenant":"alpha","key":"alpha-key","admin":true}`, 400, v1.CodeInvalidArgument},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, raw := e.do("POST", "/v1/session", "", c.body)
			if status != c.wantStatus {
				t.Fatalf("status %d, want %d: %s", status, c.wantStatus, raw)
			}
			if c.wantCode != "" {
				if got := errCode(t, raw); got.Code != c.wantCode {
					t.Fatalf("code %q, want %q", got.Code, c.wantCode)
				}
				return
			}
			var sr v1.SessionResponse
			if err := json.Unmarshal(raw, &sr); err != nil || sr.Token == "" || sr.Tenant != "alpha" {
				t.Fatalf("session response %s (err %v)", raw, err)
			}
			if sr.Priority != "interactive" {
				t.Fatalf("default priority %q, want interactive", sr.Priority)
			}
		})
	}

	// Close: valid token 204, then the token is dead; closing again 401.
	tok := e.open("alpha", "alpha-key")
	if status, _, raw := e.do("DELETE", "/v1/session", tok, nil); status != 204 {
		t.Fatalf("close: HTTP %d: %s", status, raw)
	}
	if status, _, _ := e.do("POST", "/v1/query", tok, v1.QueryRequest{Op: v1.OpScan}); status != 401 {
		t.Fatalf("closed token still queries: HTTP %d", status)
	}
	if status, _, _ := e.do("DELETE", "/v1/session", tok, nil); status != 401 {
		t.Fatalf("double close: HTTP %d", status)
	}
}

// TestQueryRoutes is the table-driven sweep over /v1/query outcomes.
func TestQueryRoutes(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, defaultTenants(), Config{})
	alpha := e.open("alpha", "alpha-key")
	bravo := e.open("bravo", "bravo-key")

	scanQ := &v1.ScanArgs{FilterCol: 0, Lo: 100, Hi: 2000, AggCol: 1}
	keys := workload.UniformInts(84, 500, 16)
	vals := workload.UniformInts(85, 500, 50)

	cases := []struct {
		name       string
		token      string
		body       any
		wantStatus int
		wantCode   string
		check      func(t *testing.T, qr v1.QueryResponse)
	}{
		{"no auth", "", v1.QueryRequest{Op: v1.OpScan}, 401, v1.CodeUnauthenticated, nil},
		{"garbage token", "beefbeef", v1.QueryRequest{Op: v1.OpScan}, 401, v1.CodeUnauthenticated, nil},
		{"malformed body", alpha, `{"op": scan}`, 400, v1.CodeInvalidArgument, nil},
		{"unknown op", alpha, v1.QueryRequest{Op: "drop-tables"}, 400, v1.CodeInvalidArgument, nil},
		{"bad priority", alpha, v1.QueryRequest{Op: v1.OpScan, Priority: "urgent"}, 400, v1.CodeInvalidArgument, nil},
		{"scan missing args", alpha, v1.QueryRequest{Op: v1.OpScan, Table: "facts"}, 400, v1.CodeInvalidArgument, nil},
		{"unknown table", alpha, v1.QueryRequest{Op: v1.OpScan, Table: "nope", Scan: scanQ}, 400, v1.CodeInvalidArgument, nil},
		{"bad join algorithm", alpha, v1.QueryRequest{Op: v1.OpJoin, Join: &v1.JoinArgs{
			BuildKeys: keys, BuildVals: vals, ProbeKeys: keys, ProbeVals: vals, Algorithm: "bogo",
		}}, 400, v1.CodeInvalidArgument, nil},
		{"unknown lineitem table", alpha, v1.QueryRequest{Op: v1.OpQ6, Table: "nope"}, 400, v1.CodeInvalidArgument, nil},
		{"scan ok", alpha, v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: scanQ, TraceID: "trace-42"},
			200, "", func(t *testing.T, qr v1.QueryResponse) {
				if qr.Result.Sum <= 0 || qr.Cost.SimCycles <= 0 || qr.Cost.BatchSize < 1 {
					t.Fatalf("scan response: %+v", qr)
				}
				if qr.Tenant != "alpha" || qr.Priority != "interactive" || qr.TraceID != "trace-42" {
					t.Fatalf("attribution: %+v", qr)
				}
			}},
		{"join ok", alpha, v1.QueryRequest{Op: v1.OpJoin, Join: &v1.JoinArgs{
			BuildKeys: keys, BuildVals: vals, ProbeKeys: keys, ProbeVals: vals,
		}}, 200, "", func(t *testing.T, qr v1.QueryResponse) {
			if qr.Result.Matches <= 0 || qr.Result.Checksum == "" {
				t.Fatalf("join result: %+v", qr.Result)
			}
		}},
		{"group-sum ok", alpha, v1.QueryRequest{Op: v1.OpGroupSum, GroupSum: &v1.GroupSumArgs{Keys: keys, Vals: vals}},
			200, "", func(t *testing.T, qr v1.QueryResponse) {
				if len(qr.Result.Groups) == 0 {
					t.Fatalf("group-sum result: %+v", qr.Result)
				}
			}},
		{"q6 ok", alpha, v1.QueryRequest{Op: v1.OpQ6, Table: "lineitem"},
			200, "", func(t *testing.T, qr v1.QueryResponse) {
				if qr.Result.Revenue <= 0 {
					t.Fatalf("q6 result: %+v", qr.Result)
				}
			}},
		{"batch tenant default priority", bravo, v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: scanQ},
			200, "", func(t *testing.T, qr v1.QueryResponse) {
				if qr.Priority != "batch" || qr.Tenant != "bravo" {
					t.Fatalf("batch default: %+v", qr)
				}
			}},
		{"priority override", bravo, v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: scanQ, Priority: "interactive"},
			200, "", func(t *testing.T, qr v1.QueryResponse) {
				if qr.Priority != "interactive" {
					t.Fatalf("override: %+v", qr)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, raw := e.do("POST", "/v1/query", c.token, c.body)
			if status != c.wantStatus {
				t.Fatalf("status %d, want %d: %s", status, c.wantStatus, raw)
			}
			if c.wantCode != "" {
				if got := errCode(t, raw); got.Code != c.wantCode {
					t.Fatalf("code %q, want %q: %s", got.Code, c.wantCode, raw)
				}
				return
			}
			var qr v1.QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatalf("response not JSON: %v: %s", err, raw)
			}
			if qr.Cost.WallMs < 0 {
				t.Fatalf("negative wall time: %+v", qr.Cost)
			}
			if c.check != nil {
				c.check(t, qr)
			}
		})
	}
}

// TestRateLimitBurstOnly pins the deterministic burst-only bucket: exactly
// Burst queries are admitted, the rest get 429 + Retry-After, before the
// body is even read.
func TestRateLimitBurstOnly(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, []TenantConfig{
		{ID: "capped", Key: "k", Burst: 2},
	}, Config{})
	tok := e.open("capped", "k")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 1000, AggCol: 1}}

	for i := 0; i < 2; i++ {
		if status, _, raw := e.do("POST", "/v1/query", tok, q); status != 200 {
			t.Fatalf("query %d within burst: HTTP %d: %s", i, status, raw)
		}
	}
	status, hdr, raw := e.do("POST", "/v1/query", tok, q)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over burst: HTTP %d: %s", status, raw)
	}
	info := errCode(t, raw)
	if info.Code != v1.CodeRateLimited || !info.Retryable || info.RetryAfterMs <= 0 {
		t.Fatalf("rate-limit error: %+v", info)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// Even a malformed body is refused with 429, not 400: governance runs
	// before the body is read.
	if status, _, raw := e.do("POST", "/v1/query", tok, `{"op": `); status != 429 {
		t.Fatalf("malformed body while throttled: HTTP %d: %s", status, raw)
	}

	// The tenant's stats expose the rejection count.
	var ts v1.TenantStats
	status, _, raw = e.do("GET", "/v1/tenants/capped/stats", tok, nil)
	if status != 200 {
		t.Fatalf("stats: HTTP %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &ts); err != nil {
		t.Fatal(err)
	}
	if ts.RateLimited != 2 || ts.Completed != 2 {
		t.Fatalf("stats: %+v", ts)
	}
	// ...and it is the registry's count, the only one kept: every refusal
	// incremented exactly one tenant counter.
	if c := e.fe.reg.Counters(); c["frontend.tenant.capped.rate_limited"] != ts.RateLimited || c["frontend.rate_limited"] != ts.RateLimited {
		t.Fatalf("registry refusal counters %v, stats say %d", c, ts.RateLimited)
	}
}

// TestRateLimitRefills pins bucket refill against the injected clock.
func TestRateLimitRefills(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, []TenantConfig{
		{ID: "steady", Key: "k", RatePerSec: 10, Burst: 1},
	}, Config{})
	tok := e.open("steady", "k")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 1000, AggCol: 1}}

	if status, _, raw := e.do("POST", "/v1/query", tok, q); status != 200 {
		t.Fatalf("first query: HTTP %d: %s", status, raw)
	}
	status, _, raw := e.do("POST", "/v1/query", tok, q)
	if status != 429 {
		t.Fatalf("drained bucket: HTTP %d: %s", status, raw)
	}
	if info := errCode(t, raw); info.RetryAfterMs <= 0 || info.RetryAfterMs > 100 {
		t.Fatalf("retry-after %dms, want (0,100] for rate 10/s", info.RetryAfterMs)
	}
	e.clock.advance(150 * time.Millisecond) // refills 1.5 tokens -> capped at 1
	if status, _, raw := e.do("POST", "/v1/query", tok, q); status != 200 {
		t.Fatalf("after refill: HTTP %d: %s", status, raw)
	}
}

// TestRetryAfterHeaderAgreesWithBody pins the header/body contract: the
// body's RetryAfterMs carries the precise wait, the header that wait rounded
// up to whole seconds, so ceil(body_ms/1000) must equal the header.
func TestRetryAfterHeaderAgreesWithBody(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, []TenantConfig{
		{ID: "steady", Key: "k", RatePerSec: 10, Burst: 1},
	}, Config{})
	tok := e.open("steady", "k")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 1000, AggCol: 1}}

	if status, _, raw := e.do("POST", "/v1/query", tok, q); status != 200 {
		t.Fatalf("first query: HTTP %d: %s", status, raw)
	}
	status, hdr, raw := e.do("POST", "/v1/query", tok, q)
	if status != 429 {
		t.Fatalf("drained bucket: HTTP %d: %s", status, raw)
	}
	info := errCode(t, raw)
	if info.RetryAfterMs <= 0 || info.RetryAfterMs > 100 {
		t.Fatalf("retry-after %dms, want (0,100] for rate 10/s", info.RetryAfterMs)
	}
	hdrSecs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After header %q: %v", hdr.Get("Retry-After"), err)
	}
	if want := int(math.Ceil(float64(info.RetryAfterMs) / 1000)); hdrSecs != want {
		t.Fatalf("header %ds disagrees with body %dms (want ceil = %ds)", hdrSecs, info.RetryAfterMs, want)
	}
}

// TestRetryHint pins the bucket-consulting backoff used for engine-side
// 429s: a drained refilling bucket reports the true time to the next token,
// an idle or burst-only bucket reports 0 (no opinion).
func TestRetryHint(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, []TenantConfig{
		{ID: "steady", Key: "k", RatePerSec: 10, Burst: 1},
		{ID: "bursty", Key: "k", Burst: 2},
	}, Config{})
	now := e.clock.now()

	steady := e.fe.tenants["steady"]
	if hint := steady.retryHint(now); hint != 0 {
		t.Fatalf("full bucket hinted %v, want 0", hint)
	}
	if ok, _ := steady.takeToken(now); !ok {
		t.Fatal("token draw from full bucket refused")
	}
	hint := steady.retryHint(now)
	if hint <= 0 || hint > 100*time.Millisecond {
		t.Fatalf("drained bucket hinted %v, want (0,100ms] for rate 10/s", hint)
	}
	// The hint must match what a refusal would have reported.
	if _, retryAfter := steady.takeToken(now); retryAfter != hint {
		t.Fatalf("hint %v disagrees with takeToken's %v", hint, retryAfter)
	}

	bursty := e.fe.tenants["bursty"]
	bursty.takeToken(now)
	bursty.takeToken(now)
	if ok, _ := bursty.takeToken(now); ok {
		t.Fatal("burst-only bucket never drained")
	}
	if hint := bursty.retryHint(now); hint != 0 {
		t.Fatalf("burst-only bucket hinted %v, want 0", hint)
	}
}

// TestQuotaExhaustion pins the concurrency quota: with the tenant's only
// slot occupied, a query gets 429 QUOTA_EXCEEDED; freeing the slot admits it.
func TestQuotaExhaustion(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, []TenantConfig{
		{ID: "narrow", Key: "k", MaxConcurrent: 1},
	}, Config{})
	tok := e.open("narrow", "k")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 1000, AggCol: 1}}

	ts, ok := e.fe.tenants["narrow"]
	if !ok {
		t.Fatal("tenant state missing")
	}
	if !ts.beginQuery() {
		t.Fatal("could not occupy the only slot")
	}
	status, hdr, raw := e.do("POST", "/v1/query", tok, q)
	if status != http.StatusTooManyRequests {
		t.Fatalf("quota full: HTTP %d: %s", status, raw)
	}
	if info := errCode(t, raw); info.Code != v1.CodeQuotaExceeded || !info.Retryable {
		t.Fatalf("quota error: %+v", info)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After header")
	}
	ts.endQuery()
	if status, _, raw := e.do("POST", "/v1/query", tok, q); status != 200 {
		t.Fatalf("after slot freed: HTTP %d: %s", status, raw)
	}
	var stats v1.TenantStats
	if _, _, raw := e.do("GET", "/v1/tenants/narrow/stats", tok, nil); json.Unmarshal(raw, &stats) != nil || stats.QuotaRejected != 1 || stats.InFlight != 0 {
		t.Fatalf("stats after one quota refusal: %s", raw)
	}
}

// TestSessionExpiry pins TTL expiry on the injected clock.
func TestSessionExpiry(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, defaultTenants(), Config{SessionTTL: time.Minute})
	tok := e.open("alpha", "alpha-key")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 1000, AggCol: 1}}
	if status, _, _ := e.do("POST", "/v1/query", tok, q); status != 200 {
		t.Fatal("fresh session refused")
	}
	e.clock.advance(2 * time.Minute)
	status, _, raw := e.do("POST", "/v1/query", tok, q)
	if status != 401 {
		t.Fatalf("expired session: HTTP %d: %s", status, raw)
	}
	if got := errCode(t, raw); got.Code != v1.CodeUnauthenticated {
		t.Fatalf("expired session code %q", got.Code)
	}
}

// TestTenantStatsIsolation pins the non-leak rule: another tenant's stats
// read exactly like a tenant that does not exist.
func TestTenantStatsIsolation(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, defaultTenants(), Config{})
	alpha := e.open("alpha", "alpha-key")

	if status, _, _ := e.do("GET", "/v1/tenants/alpha/stats", "", nil); status != 401 {
		t.Fatalf("unauthenticated stats: HTTP %d", status)
	}
	statusOther, _, rawOther := e.do("GET", "/v1/tenants/bravo/stats", alpha, nil)
	statusGhost, _, rawGhost := e.do("GET", "/v1/tenants/ghost/stats", alpha, nil)
	if statusOther != 404 || statusGhost != 404 {
		t.Fatalf("cross-tenant %d, ghost %d — both must be 404", statusOther, statusGhost)
	}
	if errCode(t, rawOther).Code != v1.CodeNotFound || errCode(t, rawGhost).Code != v1.CodeNotFound {
		t.Fatal("cross-tenant and ghost stats must carry the same code")
	}
	status, _, raw := e.do("GET", "/v1/tenants/alpha/stats", alpha, nil)
	if status != 200 {
		t.Fatalf("own stats: HTTP %d: %s", status, raw)
	}
	var ts v1.TenantStats
	if err := json.Unmarshal(raw, &ts); err != nil {
		t.Fatal(err)
	}
	if ts.Tenant != "alpha" || ts.Sessions != 1 {
		t.Fatalf("own stats: %+v", ts)
	}
}

// TestHealthRoute pins the health payload shape and per-tenant breakdown.
func TestHealthRoute(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, defaultTenants(), Config{})
	alpha := e.open("alpha", "alpha-key")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 1000, AggCol: 1}}
	for i := 0; i < 3; i++ {
		if status, _, _ := e.do("POST", "/v1/query", alpha, q); status != 200 {
			t.Fatal("query failed")
		}
	}
	status, _, raw := e.do("GET", "/v1/health", "", nil)
	if status != 200 {
		t.Fatalf("health: HTTP %d: %s", status, raw)
	}
	var h v1.HealthResponse
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status == "" || h.Workers <= 0 || h.Completed != 3 {
		t.Fatalf("health: %+v", h)
	}
	ts, ok := h.Tenants["alpha"]
	if !ok || ts.Completed != 3 || ts.LatencyP50Ms <= 0 {
		t.Fatalf("health tenant breakdown: %+v", h.Tenants)
	}
}

// TestTenantHealthBreakdown drives labelled traffic and checks the tenant
// ledger as /v1/health shows it and as the registry carries it for /metrics:
// completed scans with their latency, an engine refusal counted once under
// the code the tenant got, no entry for a tenant that sent nothing, and no
// per-tenant series kept by the engine.
func TestTenantHealthBreakdown(t *testing.T) {
	e := newTestEnv(t, serve.Options{}, append(defaultTenants(), TenantConfig{ID: "idle", Key: "k"}), Config{})
	alpha := e.open("alpha", "alpha-key")
	bravo := e.open("bravo", "bravo-key")
	scanQ := &v1.ScanArgs{Hi: 1000, AggCol: 1}
	for i := 0; i < 3; i++ {
		if status, _, raw := e.do("POST", "/v1/query", alpha, v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: scanQ}); status != 200 {
			t.Fatalf("scan %d: HTTP %d: %s", i, status, raw)
		}
	}
	// An unknown table passes the frontend's checks; the engine refuses it.
	if status, _, raw := e.do("POST", "/v1/query", bravo, v1.QueryRequest{Op: v1.OpScan, Table: "missing", Scan: scanQ}); status != 400 {
		t.Fatalf("scan of unknown table: HTTP %d: %s", status, raw)
	}

	var h v1.HealthResponse
	if status, _, raw := e.do("GET", "/v1/health", "", nil); status != 200 || json.Unmarshal(raw, &h) != nil {
		t.Fatalf("health: HTTP %d: %s", status, raw)
	}
	if ta := h.Tenants["alpha"]; ta.Admitted != 3 || ta.Completed != 3 || ta.Failed != 0 || ta.LatencyP50Ms <= 0 {
		t.Fatalf("tenant alpha health: %+v", ta)
	}
	if tb, ok := h.Tenants["bravo"]; !ok || tb.Admitted != 0 || tb.Failed != 0 {
		t.Fatalf("tenant bravo health: %+v (listed %v)", tb, ok)
	}
	if _, ok := h.Tenants["idle"]; ok {
		t.Fatalf("a tenant that sent nothing is listed: %+v", h.Tenants)
	}

	c := e.fe.reg.Counters()
	if c["frontend.tenant.alpha.completed"] != 3 || c["frontend.tenant.bravo.invalid"] != 1 || c["frontend.invalid"] != 0 {
		t.Fatalf("tenant series: %v", c)
	}
	if got := e.fe.reg.Histogram("frontend.tenant.alpha.latency_ms").Stats().Count; got != 3 {
		t.Fatalf("alpha latency holds %d samples, want 3", got)
	}
	for k := range c {
		if strings.HasPrefix(k, "serve.tenant.") {
			t.Fatalf("the engine keeps a tenant series: %q", k)
		}
	}
}

// TestLedgerRecordsWithoutAllocating: recording a query under every outcome,
// the frontend's own refusals included, allocates nothing (the handles are
// resolved at New), and each engine code lands under its outcome.
func TestLedgerRecordsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	e := newTestEnv(t, serve.Options{}, defaultTenants(), Config{})
	ts := e.fe.tenants["alpha"]
	resp := serve.Response{Spilled: true, SpillBytes: 64}
	resp.SimCycles = 1e5
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		ts.ledger.completed(1.5, &resp)
		for _, code := range []string{v1.CodeOverloaded, v1.CodeMemoryPressure, v1.CodeDeadlineExceeded, v1.CodeInvalidArgument, v1.CodeInternal} {
			ts.ledger.engineError(code)
		}
		for _, o := range []outcome{outInvalid, outRateLimited, outQuotaRejected} {
			e.fe.tenantGovInc(ts, o)
		}
	})
	if allocs != 0 {
		t.Fatalf("recording every outcome made %.1f allocations, want 0", allocs)
	}
	const n = runs + 1 // AllocsPerRun warms up with one extra call
	got := wireTenantStats(ts, nil)
	want := v1.TenantStats{
		Tenant: "alpha", Admitted: 3 * n, Completed: n, Failed: n, Rejected: n, MemShed: n,
		DeadlineExceeded: n, Spills: n, SpillBytes: 64 * n, RateLimited: n, QuotaRejected: n,
		LatencyP50Ms: got.LatencyP50Ms, LatencyP99Ms: got.LatencyP99Ms,
	}
	if got != want || ts.ledger.count[outInvalid].Value() != 2*n {
		t.Fatalf("ledger after %d rounds: %+v, invalid %d; want %+v, invalid %d", n, got, ts.ledger.count[outInvalid].Value(), want, 2*n)
	}
}

// TestOverloadSheds429 drives a flood at a one-slot queue: some queries must
// be shed with 429 OVERLOADED + Retry-After, and nothing may fail any other
// way.
func TestOverloadSheds429(t *testing.T) {
	e := newTestEnv(t, serve.Options{
		Workers:    2,
		QueueDepth: 1,
		MaxBatch:   1,
	}, defaultTenants(), Config{})
	tok := e.open("alpha", "alpha-key")
	q := v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 10000, AggCol: 1}}

	const flood = 64
	shed := 0
	// Overload is a race between the flood and the dispatcher draining the
	// one-slot queue; a wave can in principle complete cleanly (the
	// scheduler may drain between every pair of arrivals), so flood in
	// waves until at least one shed is observed. The bound is generous
	// because every wave legitimately completing clean is the flaky tail:
	// 64 concurrent arrivals at a one-slot queue shed with overwhelming
	// probability per wave, but not with certainty.
	for wave := 0; wave < 25 && shed == 0; wave++ {
		statuses := make([]int, flood)
		codes := make([]string, flood)
		headers := make([]http.Header, flood)
		var wg sync.WaitGroup
		for i := 0; i < flood; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, hdr, raw := e.do("POST", "/v1/query", tok, q)
				statuses[i], headers[i] = status, hdr
				if status != 200 {
					var eb v1.ErrorBody
					_ = json.Unmarshal(raw, &eb)
					codes[i] = eb.Error.Code
				}
			}()
		}
		wg.Wait()

		for i, status := range statuses {
			switch status {
			case 200:
			case http.StatusTooManyRequests:
				shed++
				if codes[i] != v1.CodeOverloaded {
					t.Fatalf("shed %d carried code %q, want %q", i, codes[i], v1.CodeOverloaded)
				}
				if headers[i].Get("Retry-After") == "" {
					t.Fatalf("shed %d missing Retry-After", i)
				}
			default:
				t.Fatalf("query %d: unexpected HTTP %d (code %q)", i, status, codes[i])
			}
		}
	}
	if shed == 0 {
		t.Fatal("five floods at a one-slot queue shed nothing")
	}
}

// TestTwoTenantChaos is the race-enabled integration test: two tenants hammer
// every route concurrently while the engine runs with fault injection armed.
// Every response must be a well-formed wire message with a known code, and
// the health endpoint must stay consistent throughout.
func TestTwoTenantChaos(t *testing.T) {
	e := newTestEnv(t, serve.Options{
		Workers:    4,
		QueueDepth: 32,
		Memory:     mem.Config{BudgetBytes: 4 << 20},
		Faults: fault.New(fault.Config{
			Seed:          7,
			PanicProb:     0.02,
			TransientProb: 0.05,
			StragglerProb: 0.05,
			StragglerSkew: 2,
		}),
	}, []TenantConfig{
		{ID: "alpha", Key: "alpha-key", MaxConcurrent: 4},
		{ID: "bravo", Key: "bravo-key", Priority: "batch", RatePerSec: 50, Burst: 8},
	}, Config{})
	alpha := e.open("alpha", "alpha-key")
	bravo := e.open("bravo", "bravo-key")

	keys := workload.UniformInts(86, 800, 32)
	vals := workload.UniformInts(87, 800, 50)
	known := map[string]bool{
		v1.CodeInvalidArgument: true, v1.CodeRateLimited: true,
		v1.CodeQuotaExceeded: true, v1.CodeOverloaded: true,
		v1.CodeMemoryPressure: true, v1.CodeDegraded: true,
		v1.CodeUnavailable: true, v1.CodeDeadlineExceeded: true,
		v1.CodeInternal: true,
	}

	var wg sync.WaitGroup
	worker := func(tok string, id int) {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			var body any
			switch (id + j) % 4 {
			case 0:
				body = v1.QueryRequest{Op: v1.OpScan, Table: "facts", Scan: &v1.ScanArgs{Hi: 5000, AggCol: 1}}
			case 1:
				body = v1.QueryRequest{Op: v1.OpGroupSum, GroupSum: &v1.GroupSumArgs{Keys: keys, Vals: vals}}
			case 2:
				body = v1.QueryRequest{Op: "nonsense"} // always 400
			case 3:
				body = fmt.Sprintf(`{"op": %d}`, j) // always 400
			}
			status, _, raw := e.do("POST", "/v1/query", tok, body)
			switch {
			case status == 200:
				var qr v1.QueryResponse
				if err := json.Unmarshal(raw, &qr); err != nil {
					t.Errorf("200 with non-wire body: %s", raw)
					return
				}
			default:
				if info := errCode(t, raw); !known[info.Code] {
					t.Errorf("HTTP %d with unknown code %q", status, info.Code)
					return
				}
			}
			if j%5 == 0 {
				if status, _, _ := e.do("GET", "/v1/health", "", nil); status != 200 {
					t.Errorf("health returned %d mid-chaos", status)
					return
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go worker(alpha, i)
		go worker(bravo, i+100)
	}
	wg.Wait()

	// Post-chaos: the books must balance per tenant on the frontend side.
	for _, id := range []string{"alpha", "bravo"} {
		tok := map[string]string{"alpha": alpha, "bravo": bravo}[id]
		status, _, raw := e.do("GET", "/v1/tenants/"+id+"/stats", tok, nil)
		if status != 200 {
			t.Fatalf("%s stats: HTTP %d", id, status)
		}
		var ts v1.TenantStats
		if err := json.Unmarshal(raw, &ts); err != nil {
			t.Fatal(err)
		}
		if ts.InFlight != 0 {
			t.Fatalf("%s still shows %d in-flight after drain", id, ts.InFlight)
		}
	}
}
