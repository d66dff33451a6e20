package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hwstar"
	v1 "hwstar/internal/frontend/v1"
)

// syncBuffer is a bytes.Buffer safe for the serveAPI goroutine to write
// while the test polls it for the bound address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	apiAddrRe  = regexp.MustCompile(`/v1 API on (\S+)`)
	apiReadyRe = regexp.MustCompile(`durable store \S+ ready \(manifest v(\d+)`)
)

// TestServeAPISmoke is the CI boot smoke, once per topology: start hwserve
// in server mode with two tenants — one interactive, one burst-capped batch
// — then assert over real HTTP that the interactive tenant completes all its
// work while the noisy tenant is deterministically rate-limited, and that
// the governance split shows up in /v1/health and /metrics.
func TestServeAPISmoke(t *testing.T) {
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) { serveAPISmoke(t, mode.shards, mode.replicas) })
	}
}

func serveAPISmoke(t *testing.T, shards, replicas int) {
	cfg := DefaultConfig()
	cfg.Rows = 1 << 14
	cfg.Shards, cfg.Replicas = shards, replicas
	cfg.ServeAPI = "127.0.0.1:0"
	cfg.Tenants = []hwstar.TenantConfig{
		{ID: "int-a", Key: "ka"},
		{ID: "noisy-b", Key: "kb", Priority: "batch", Burst: 3, MaxConcurrent: 1},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- serveAPI(ctx, cfg, &out) }()
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serveAPI returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("serveAPI did not shut down")
		}
	}()

	// Wait for the listener line to learn the bound port.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := apiAddrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if shards > 1 && !strings.Contains(out.String(), "3 shards x 2 replicas") {
		t.Fatalf("cluster banner missing the topology: %q", out.String())
	}

	openSession := func(tenant, key string) string {
		t.Helper()
		body, _ := json.Marshal(v1.SessionRequest{Tenant: tenant, Key: key})
		resp, err := http.Post(base+"/v1/session", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr v1.SessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != 200 {
			t.Fatalf("session open for %s: HTTP %d (err %v)", tenant, resp.StatusCode, err)
		}
		return sr.Token
	}
	query := func(token string) int {
		t.Helper()
		body, _ := json.Marshal(v1.QueryRequest{
			Op: v1.OpScan, Table: "facts",
			Scan: &v1.ScanArgs{FilterCol: 0, Lo: 0, Hi: 50000, AggCol: 1},
		})
		req, _ := http.NewRequest("POST", base+"/v1/query", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sink json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&sink)
		return resp.StatusCode
	}

	intTok := openSession("int-a", "ka")
	noisyTok := openSession("noisy-b", "kb")

	// The noisy tenant floods: exactly Burst=3 queries are admitted, the
	// rest refused with 429 — while every interactive query keeps landing.
	const noisyFlood = 10
	noisyOK, noisyLimited := 0, 0
	for i := 0; i < noisyFlood; i++ {
		switch status := query(noisyTok); status {
		case 200:
			noisyOK++
		case http.StatusTooManyRequests:
			noisyLimited++
		default:
			t.Fatalf("noisy query %d: HTTP %d", i, status)
		}
		if status := query(intTok); status != 200 {
			t.Fatalf("interactive query %d refused alongside the flood: HTTP %d", i, status)
		}
	}
	if noisyOK != 3 || noisyLimited != noisyFlood-3 {
		t.Fatalf("noisy governance: %d ok, %d limited; want exactly 3 and %d", noisyOK, noisyLimited, noisyFlood-3)
	}

	// The isolation is visible in the health breakdown...
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h v1.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != 200 {
		t.Fatalf("health: HTTP %d (err %v)", resp.StatusCode, err)
	}
	// Governance counts are the frontend's and exact in both topologies; a
	// Router's Completed sums per-stripe sub-requests, so there it is a floor.
	completedOK := func(got, queries int64) bool {
		if shards > 1 {
			return got >= queries
		}
		return got == queries
	}
	// Latency is what the tenant waited for, whole-request, in both
	// topologies (a Router records it itself: shard.tenant.<id>.latency_ms).
	if got := h.Tenants["int-a"]; !completedOK(got.Completed, noisyFlood) || got.RateLimited != 0 || got.LatencyP50Ms <= 0 {
		t.Fatalf("interactive tenant health: %+v", got)
	}
	if got := h.Tenants["noisy-b"]; !completedOK(got.Completed, 3) || got.RateLimited != int64(noisyFlood-3) || got.LatencyP50Ms <= 0 {
		t.Fatalf("noisy tenant health: %+v", got)
	}

	// ...and in the Prometheus exposition (names normalized: '.'/'-' → '_').
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("frontend_tenant_noisy_b_rate_limited %d", noisyFlood-3)
	if !strings.Contains(mbuf.String(), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

// TestServeAPIDurableRestart boots server mode twice over one -data-dir:
// the first instance registers and flushes its tables on shutdown, the
// second replays them at boot and answers the same query — the operator's
// restart story end to end, visible in the /v1 health durability fields.
func TestServeAPIDurableRestart(t *testing.T) {
	dataDir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Rows = 1 << 12
	cfg.ServeAPI = "127.0.0.1:0"
	cfg.DataDir = dataDir
	cfg.Tenants = []hwstar.TenantConfig{{ID: "a", Key: "ka"}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// boot starts one serveAPI instance and waits for the listener line and
	// the durable-ready line; stop shuts it down (flushing the store).
	boot := func() (base string, stop func()) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		var out syncBuffer
		done := make(chan error, 1)
		go func() { done <- serveAPI(ctx, cfg, &out) }()
		deadline := time.Now().Add(10 * time.Second)
		for {
			s := out.String()
			if m := apiAddrRe.FindStringSubmatch(s); m != nil && apiReadyRe.MatchString(s) {
				base = "http://" + m[1]
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never became ready; output: %q", s)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return base, func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("serveAPI returned %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("serveAPI did not shut down")
			}
		}
	}
	query := func(base, token string) int {
		t.Helper()
		body, _ := json.Marshal(v1.QueryRequest{
			Op: v1.OpScan, Table: "facts",
			Scan: &v1.ScanArgs{FilterCol: 0, Lo: 0, Hi: 50000, AggCol: 1},
		})
		req, _ := http.NewRequest("POST", base+"/v1/query", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sink json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&sink)
		return resp.StatusCode
	}
	session := func(base string) string {
		t.Helper()
		body, _ := json.Marshal(v1.SessionRequest{Tenant: "a", Key: "ka"})
		resp, err := http.Post(base+"/v1/session", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr v1.SessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != 200 {
			t.Fatalf("session open: HTTP %d (err %v)", resp.StatusCode, err)
		}
		return sr.Token
	}

	// First life: fresh directory, query, shut down (Close flushes).
	base, stop := boot()
	if status := query(base, session(base)); status != 200 {
		t.Fatalf("first-life query: HTTP %d", status)
	}
	stop()

	// Second life: the same directory replays; the query works again and
	// health reports the recovery.
	base, stop = boot()
	defer stop()
	if status := query(base, session(base)); status != 200 {
		t.Fatalf("post-restart query: HTTP %d", status)
	}
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h v1.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != 200 {
		t.Fatalf("health: HTTP %d (err %v)", resp.StatusCode, err)
	}
	if !h.Durable || h.Status != "ok" {
		t.Fatalf("health: durable=%v status=%q, want durable and ok", h.Durable, h.Status)
	}
	if h.StoreVersion < 1 || h.RecoveredTables < 1 {
		t.Fatalf("health recovery: store_version=%d recovered_tables=%d, want >=1 each", h.StoreVersion, h.RecoveredTables)
	}
}
