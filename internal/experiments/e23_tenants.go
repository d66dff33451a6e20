package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// row renders the cohort as one line of the governance table.
func (c *e23Counts) row(tenant, priority string) []string {
	rps := 0.0
	if c.elapsed > 0 {
		rps = float64(c.completed) / c.elapsed.Seconds()
	}
	return []string{tenant, priority, bench.F("%d", c.sent), bench.F("%d", c.completed),
		bench.F("%d", c.rateLimited), bench.F("%d", c.quota), bench.F("%d", c.shed),
		bench.F("%d", c.failed), bench.F("%.0f", rps)}
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

// runE23 executes the two-tenant isolation experiment.
//
// Phase 1 (solo): the interactive tenant runs its scan workload alone.
// Phase 2 (duo): the same workload runs while a noisy batch tenant floods
// expensive grouped aggregations; the noisy tenant's token bucket is
// burst-only (rate 0), so its admission count — and therefore its rejection
// count — is exact, not probabilistic.
func runE23(cfg Config) ([]*Table, error) {
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
		MaxBatch:           256,
		InteractiveReserve: 6,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cols := [][]int64{
		workload.UniformInts(2311, rows, 100000),
		workload.UniformInts(2312, rows, 1000),
	}
	if err := srv.Register("facts", cols); err != nil {
		return nil, err
	}

	fe, err := frontend.New(frontend.Config{
		Backend: srv,
		Tenants: []frontend.TenantConfig{
			{ID: "int-a", Key: "int-a-key", Priority: "interactive"},
			{ID: "noisy-b", Key: "noisy-b-key", Priority: "batch", Burst: noisyBurst, MaxConcurrent: 1},
		},
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(fe.Handler())
	defer hs.Close()

	intClient, err := newE23Client(hs.URL, "int-a", "int-a-key")
	if err != nil {
		return nil, err
	}
	noisyClient, err := newE23Client(hs.URL, "noisy-b", "noisy-b-key")
	if err != nil {
		return nil, err
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

	// Everyone has joined: the counts are read without their mutex from here.
	soloP50, soloP99 := quantileOf(solo.latenciesMs, 0.5), quantileOf(solo.latenciesMs, 0.99)
	duoP50, duoP99 := quantileOf(duo.latenciesMs, 0.5), quantileOf(duo.latenciesMs, 0.99)
	p99Ratio := 0.0
	if soloP99 > 0 {
		p99Ratio = duoP99 / soloP99
	}

	// The noisy tenant's bucket is burst-only: admitted exactly
	// min(sent, burst), rejected exactly sent-burst. Anything else is a
	// frontend bug, not noise.
	wantSent := int64(noisyClients * noisyRequests)
	wantLimited := max(wantSent-int64(noisyBurst), 0)
	if noisy.rateLimited != wantLimited {
		return nil, fmt.Errorf("e23: noisy tenant rate-limited %d times, want exactly %d (burst %d of %d sent)",
			noisy.rateLimited, wantLimited, noisyBurst, wantSent)
	}

	t1 := bench.NewTable(
		fmt.Sprintf("E23: interactive tenant p99 under a noisy batch tenant (%d×%d interactive, %d×%d noisy, burst %d)",
			intClients, intRequests, noisyClients, noisyRequests, noisyBurst),
		"phase", "sent", "completed", "p50 ms", "p99 ms", "p99 vs solo")
	t1.AddRow("solo", bench.F("%d", solo.sent), bench.F("%d", solo.completed),
		bench.F("%.2f", soloP50), bench.F("%.2f", soloP99), "1.00x")
	t1.AddRow("vs noisy batch", bench.F("%d", duo.sent), bench.F("%d", duo.completed),
		bench.F("%.2f", duoP50), bench.F("%.2f", duoP99), bench.F("%.2fx", p99Ratio))

	// The solo and duo phases both ran on the int-a session; the governance
	// table reports the duo phase (the contended one).
	t2 := bench.NewTable("E23: per-tenant governance (noisy tenant burst-only bucket: rejections are exact)",
		"tenant", "priority", "sent", "completed", "rate-limited", "quota-rejected", "shed", "failed", "throughput rps")
	t2.AddRow(duo.row("int-a", "interactive")...)
	t2.AddRow(noisy.row("noisy-b", "batch")...)
	return []*Table{t1, t2}, nil
}
