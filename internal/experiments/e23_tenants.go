package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"hwstar/internal/bench"
	"hwstar/internal/frontend"
	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/hw"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E23",
		Title: "Multi-tenant isolation: noisy batch tenant vs interactive tenant over the HTTP API",
		Claim: "per-tenant governance at the network frontend — token-bucket rate limits, priority lanes, and an interactive core reserve — keeps an interactive tenant's p99 within a small factor of its solo latency while a noisy batch tenant is rate-limited deterministically, instead of the noisy tenant starving everyone through a shared queue",
		Run:   runE23,
	})
}

// E23TenantBench is one tenant's outcome.
type E23TenantBench struct {
	Tenant        string  `json:"tenant"`
	Priority      string  `json:"priority"`
	Sent          int64   `json:"sent"`
	Completed     int64   `json:"completed"`
	RateLimited   int64   `json:"rate_limited"`
	QuotaRejected int64   `json:"quota_rejected"`
	Shed          int64   `json:"shed"`
	Failed        int64   `json:"failed"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// E23Bench is the full E23 outcome: what the gates in the tests read and
// the tables render.
type E23Bench struct {
	Scale       float64        `json:"scale"`
	Machine     string         `json:"machine"`
	SoloP50Ms   float64        `json:"interactive_solo_p50_ms"`
	SoloP99Ms   float64        `json:"interactive_solo_p99_ms"`
	DuoP50Ms    float64        `json:"interactive_duo_p50_ms"`
	DuoP99Ms    float64        `json:"interactive_duo_p99_ms"`
	P99Ratio    float64        `json:"interactive_p99_duo_vs_solo"`
	Interactive E23TenantBench `json:"interactive"`
	Noisy       E23TenantBench `json:"noisy"`
}

// e23Client is one tenant's HTTP session against the frontend under test.
type e23Client struct {
	base  string
	token string
	http  *http.Client
}

func newE23Client(base, tenant, key string) (*e23Client, error) {
	c := &e23Client{base: base, http: &http.Client{Timeout: 30 * time.Second}}
	body, _ := json.Marshal(v1.SessionRequest{Tenant: tenant, Key: key})
	resp, err := c.http.Post(base+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("e23: session open for %s: HTTP %d", tenant, resp.StatusCode)
	}
	var sr v1.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	c.token = sr.Token
	return c, nil
}

// query posts one pre-marshaled query body and classifies the outcome by
// wire error code. Marshaling stays outside so the noisy tenant's large
// inline payload is encoded once, not per request — client-side encoding is
// not the contention under measurement.
func (c *e23Client) query(body []byte) (status int, code string, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var qr v1.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return resp.StatusCode, "", err
		}
		return resp.StatusCode, "", nil
	}
	var eb v1.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, eb.Error.Code, nil
}

// e23Counts tallies one cohort's outcomes.
type e23Counts struct {
	mu                                                sync.Mutex
	sent, completed, rateLimited, quota, shed, failed int64
	latenciesMs                                       []float64
	elapsed                                           time.Duration
}

func (c *e23Counts) note(status int, code string, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent++
	switch {
	case status == http.StatusOK:
		c.completed++
		c.latenciesMs = append(c.latenciesMs, float64(latency.Microseconds())/1000)
	case code == v1.CodeRateLimited:
		c.rateLimited++
	case code == v1.CodeQuotaExceeded:
		c.quota++
	case code == v1.CodeOverloaded || code == v1.CodeMemoryPressure:
		c.shed++
	default:
		c.failed++
	}
}

func (c *e23Counts) quantile(q float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return quantileOf(c.latenciesMs, q)
}

func quantileOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

func (c *e23Counts) bench(tenant, priority string) E23TenantBench {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := E23TenantBench{
		Tenant: tenant, Priority: priority,
		Sent: c.sent, Completed: c.completed,
		RateLimited: c.rateLimited, QuotaRejected: c.quota,
		Shed: c.shed, Failed: c.failed,
		P50Ms: quantileOf(c.latenciesMs, 0.5), P99Ms: quantileOf(c.latenciesMs, 0.99),
	}
	if c.elapsed > 0 {
		b.ThroughputRPS = float64(c.completed) / c.elapsed.Seconds()
	}
	return b
}

// e23Cohort fires clients×requests queries from a tenant's session, one
// goroutine per client, and tallies the outcomes. think paces each client
// between requests (jittered ±50%): the run is in-process, so without a
// stand-in for network RTT a rejected client can resubmit at a rate no
// real network would carry, and the phases would not overlap.
func e23Cohort(c *e23Client, clients, requests int, think time.Duration, mkQuery func(rng *rand.Rand) []byte, counts *e23Counts) {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2300 + i)))
			for j := 0; j < requests; j++ {
				if think > 0 && j > 0 {
					time.Sleep(think/2 + time.Duration(rng.Int63n(int64(think))))
				}
				q := mkQuery(rng)
				qStart := time.Now()
				status, code, err := c.query(q)
				if err != nil {
					counts.note(0, "", 0)
					continue
				}
				counts.note(status, code, time.Since(qStart))
			}
		}()
	}
	wg.Wait()
	counts.mu.Lock()
	counts.elapsed = time.Since(start)
	counts.mu.Unlock()
}

// RunE23 executes the two-tenant isolation experiment and returns both the
// rendered tables and the structured bench artifact.
//
// Phase 1 (solo): the interactive tenant runs its scan workload alone.
// Phase 2 (duo): the same workload runs while a noisy batch tenant floods
// expensive grouped aggregations; the noisy tenant's token bucket is
// burst-only (rate 0), so its admission count — and therefore its rejection
// count — is exact, not probabilistic.
func RunE23(cfg Config) (*E23Bench, []*Table, error) {
	m := hw.Server2S()
	intClients := cfg.scaled(8, 2)
	intRequests := cfg.scaled(80, 5)
	noisyClients := cfg.scaled(8, 2)
	noisyRequests := cfg.scaled(80, 5)
	noisyBurst := cfg.scaled(64, 4)
	rows := cfg.scaled(1<<20, 1<<15)
	aggRows := cfg.scaled(1<<14, 1<<10)

	srv, err := serve.New(m, serve.Options{
		Workers:            8,
		QueueDepth:         1024,
		BatchQueueDepth:    1024,
		MaxBatch:           256,
		BatchWindow:        500 * time.Microsecond,
		InteractiveReserve: 6,
	})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	cols := [][]int64{
		workload.UniformInts(2311, rows, 100000),
		workload.UniformInts(2312, rows, 1000),
	}
	if err := srv.Register("facts", cols); err != nil {
		return nil, nil, err
	}

	fe, err := frontend.New(frontend.Config{
		Backend: srv,
		Tenants: []frontend.TenantConfig{
			{ID: "int-a", Key: "int-a-key", Priority: "interactive"},
			{ID: "noisy-b", Key: "noisy-b-key", Priority: "batch", Burst: noisyBurst, MaxConcurrent: 1},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	hs := httptest.NewServer(fe.Handler())
	defer hs.Close()

	intClient, err := newE23Client(hs.URL, "int-a", "int-a-key")
	if err != nil {
		return nil, nil, err
	}
	noisyClient, err := newE23Client(hs.URL, "noisy-b", "noisy-b-key")
	if err != nil {
		return nil, nil, err
	}

	mkScan := func(rng *rand.Rand) []byte {
		lo := int64(rng.Intn(90000))
		body, _ := json.Marshal(&v1.QueryRequest{
			Op: v1.OpScan, Table: "facts",
			Scan: &v1.ScanArgs{FilterCol: 0, Lo: lo, Hi: lo + 5000, AggCol: 1},
		})
		return body
	}
	aggKeys := workload.UniformInts(2313, aggRows, 1024)
	aggVals := workload.UniformInts(2314, aggRows, 100)
	aggBody, _ := json.Marshal(&v1.QueryRequest{
		Op:       v1.OpGroupSum,
		GroupSum: &v1.GroupSumArgs{Keys: aggKeys, Vals: aggVals, Strategy: "radix-partitioned"},
	})
	mkAgg := func(*rand.Rand) []byte { return aggBody }

	// Phase 1: interactive tenant alone.
	var solo e23Counts
	e23Cohort(intClient, intClients, intRequests, 0, mkScan, &solo)

	// Phase 2: same interactive workload under the noisy batch flood.
	var duo, noisy e23Counts
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e23Cohort(noisyClient, noisyClients, noisyRequests, 20*time.Millisecond, mkAgg, &noisy)
	}()
	go func() {
		defer wg.Done()
		e23Cohort(intClient, intClients, intRequests, 0, mkScan, &duo)
	}()
	wg.Wait()

	b := &E23Bench{
		Scale:     cfg.Scale,
		Machine:   "server-2s8c",
		SoloP50Ms: solo.quantile(0.5), SoloP99Ms: solo.quantile(0.99),
		DuoP50Ms: duo.quantile(0.5), DuoP99Ms: duo.quantile(0.99),
	}
	if b.SoloP99Ms > 0 {
		b.P99Ratio = b.DuoP99Ms / b.SoloP99Ms
	}
	// The duo-phase interactive counters plus the solo phase both ran on the
	// int-a session; report the duo phase (the contended one).
	b.Interactive = duo.bench("int-a", "interactive")
	b.Noisy = noisy.bench("noisy-b", "batch")

	// The noisy tenant's bucket is burst-only: admitted exactly
	// min(sent, burst), rejected exactly sent-burst. Anything else is a
	// frontend bug, not noise.
	wantSent := int64(noisyClients * noisyRequests)
	wantLimited := wantSent - int64(noisyBurst)
	if wantLimited < 0 {
		wantLimited = 0
	}
	if b.Noisy.RateLimited != wantLimited {
		return nil, nil, fmt.Errorf("e23: noisy tenant rate-limited %d times, want exactly %d (burst %d of %d sent)",
			b.Noisy.RateLimited, wantLimited, noisyBurst, wantSent)
	}

	t1 := bench.NewTable(
		fmt.Sprintf("E23: interactive tenant p99 under a noisy batch tenant (%d×%d interactive, %d×%d noisy, burst %d)",
			intClients, intRequests, noisyClients, noisyRequests, noisyBurst),
		"phase", "sent", "completed", "p50 ms", "p99 ms", "p99 vs solo")
	t1.AddRow("solo", bench.F("%d", solo.sent), bench.F("%d", solo.completed),
		bench.F("%.2f", b.SoloP50Ms), bench.F("%.2f", b.SoloP99Ms), "1.00x")
	t1.AddRow("vs noisy batch", bench.F("%d", duo.sent), bench.F("%d", duo.completed),
		bench.F("%.2f", b.DuoP50Ms), bench.F("%.2f", b.DuoP99Ms), bench.F("%.2fx", b.P99Ratio))

	t2 := bench.NewTable("E23: per-tenant governance (noisy tenant burst-only bucket: rejections are exact)",
		"tenant", "priority", "sent", "completed", "rate-limited", "quota-rejected", "shed", "failed", "throughput rps")
	for _, tb := range []E23TenantBench{b.Interactive, b.Noisy} {
		t2.AddRow(tb.Tenant, tb.Priority, bench.F("%d", tb.Sent), bench.F("%d", tb.Completed),
			bench.F("%d", tb.RateLimited), bench.F("%d", tb.QuotaRejected), bench.F("%d", tb.Shed),
			bench.F("%d", tb.Failed), bench.F("%.0f", tb.ThroughputRPS))
	}
	return b, []*Table{t1, t2}, nil
}

func runE23(cfg Config) ([]*Table, error) {
	_, tables, err := RunE23(cfg)
	return tables, err
}
