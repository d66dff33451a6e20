// Package frontend is hwstar's multi-tenant network face: an HTTP/JSON API
// (wire protocol in frontend/v1) over any Backend — a single serve.Server
// or a sharded, replicated shard.Router.
//
// The keynote's deployment reality — one engine, many concurrent clients of
// unequal importance — is exactly what the in-process Go API cannot express.
// This package adds the missing boundary layer:
//
//   - Sessions: tenants authenticate with an API key and get a bearer token
//     with a TTL; every query is attributed to the session's tenant.
//   - Governance before admission: a per-tenant token bucket (rate limit)
//     and a concurrent-query quota run BEFORE serve.Submit, so a noisy
//     tenant burns its own allowance, not the engine's intake queue.
//   - Governance inside the engine: tenant identity threads into
//     serve.Request, picking up per-tenant metrics, trace attribution,
//     tenant-capped memory reservations, and the priority lane the tenant
//     is configured for.
//
// The tenant registry is fixed at New and read without a lock. Session state
// is sharded (hash of token → shard, each with its own RWMutex) so the
// per-request lookup path never funnels through one hot registry lock —
// McKenney's rule applied at the frontend, matching the partitioned design
// the execution layers already follow.
package frontend

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"hwstar/internal/errs"
	"hwstar/internal/metrics"
	"hwstar/internal/serve"
	"hwstar/internal/table"
)

// Backend is the engine surface the frontend fronts. Both a single
// serve.Server and a shard.Router satisfy it, so the same HTTP tier runs
// unchanged against one engine or a replicated cluster — the wire protocol
// never learns which it is talking to (a sharded backend merely starts
// setting the partial-result fields on serve.Response).
type Backend interface {
	Submit(ctx context.Context, req serve.Request) (serve.Response, error)
	Health() serve.Health
	TenantHealth(tenant string) serve.TenantHealth
	Workers() int
	Metrics() *metrics.Registry
	SetTenantMemCap(tenant string, bytes int64)
}

// TenantConfig declares one tenant and its governance envelope.
type TenantConfig struct {
	// ID names the tenant; it labels metrics, traces, and health breakdowns.
	ID string `json:"id"`
	// Key is the API key presented at session open.
	Key string `json:"key"`
	// Priority is the tenant's default dispatch class: "interactive" (the
	// default) or "batch". Individual queries may override it.
	Priority string `json:"priority,omitempty"`
	// RatePerSec and Burst arm the tenant's token bucket: Burst tokens to
	// start, refilled at RatePerSec. Burst <= 0 disables rate limiting.
	// RatePerSec 0 with a positive Burst is a burst-only bucket — exactly
	// Burst queries ever admitted — which experiments use for deterministic
	// rejection counts.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	// MaxConcurrent caps the tenant's in-flight queries. 0 = unlimited.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MemCapBytes caps the tenant's share of the memory governor's budget.
	// 0 = bounded only by the global budget.
	MemCapBytes int64 `json:"mem_cap_bytes,omitempty"`
}

// Config assembles a Frontend.
type Config struct {
	// Backend is the engine the frontend fronts (required): a
	// *serve.Server, or a shard.Router presenting a replicated cluster
	// behind the same six methods.
	Backend Backend
	// Tenants declares the tenant set. At least one tenant is required —
	// an API with no one authorized to call it is a misconfiguration.
	Tenants []TenantConfig
	// SessionTTL bounds token lifetime. Default 1 hour.
	SessionTTL time.Duration
	// QueryTimeout, when positive, caps each query's context deadline.
	QueryTimeout time.Duration
	// Lineitems names the tables q1/q6 queries may reference.
	Lineitems map[string]*table.Table
	// Now overrides the clock (token-bucket refill, session expiry) for
	// deterministic tests. Default time.Now.
	Now func() time.Time
}

// nShards is the session map shard count: two tokens hashing apart never
// contend on a lookup lock.
const nShards = 16

// sessionShard is one slice of the session table.
type sessionShard struct {
	mu sync.RWMutex
	m  map[string]*session
}

// session is one live bearer token.
type session struct {
	tenant  string
	expires time.Time
}

// tenantState is one tenant's frontend-side governance state. The struct is
// always handled by pointer (nolockcopy) and its mutex scopes only this
// tenant — cross-tenant contention is impossible by construction.
type tenantState struct {
	cfg TenantConfig

	mu       sync.Mutex
	tokens   float64   // token-bucket level
	last     time.Time // last refill
	inFlight int64     // queries between quota begin/end
	sessions int64     // live (unexpired, unclosed) sessions
}

// Frontend is the HTTP API server state. Create with New, mount Handler on
// an http.Server. All methods are safe for concurrent use.
type Frontend struct {
	srv       Backend
	reg       *metrics.Registry
	ttl       time.Duration
	timeout   time.Duration
	now       func() time.Time
	lineitems map[string]*table.Table

	// tenants is written only inside New and read without a lock after.
	tenants  map[string]*tenantState
	sessions [nShards]sessionShard
}

// New validates cfg and builds a Frontend, arming the engine's governor
// with each tenant's memory cap.
func New(cfg Config) (*Frontend, error) {
	backend := cfg.Backend
	if backend == nil {
		return nil, fmt.Errorf("frontend: nil backend: %w", errs.ErrInvalidInput)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("frontend: no tenants configured: %w", errs.ErrInvalidInput)
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Hour
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &Frontend{
		srv:       backend,
		reg:       backend.Metrics(),
		ttl:       cfg.SessionTTL,
		timeout:   cfg.QueryTimeout,
		now:       cfg.Now,
		lineitems: cfg.Lineitems,
		tenants:   make(map[string]*tenantState, len(cfg.Tenants)),
	}
	for i := range f.sessions {
		f.sessions[i].m = make(map[string]*session)
	}
	for _, tc := range cfg.Tenants {
		if tc.ID == "" || tc.Key == "" {
			return nil, fmt.Errorf("frontend: tenant needs id and key: %w", errs.ErrInvalidInput)
		}
		switch tc.Priority {
		case "":
			tc.Priority = string(serve.PriorityInteractive)
		case string(serve.PriorityInteractive), string(serve.PriorityBatch):
		default:
			return nil, fmt.Errorf("frontend: tenant %q: unknown priority %q: %w", tc.ID, tc.Priority, errs.ErrInvalidInput)
		}
		if _, dup := f.tenants[tc.ID]; dup {
			return nil, fmt.Errorf("frontend: duplicate tenant %q: %w", tc.ID, errs.ErrInvalidInput)
		}
		f.tenants[tc.ID] = &tenantState{cfg: tc, tokens: float64(tc.Burst), last: cfg.Now()}
		if tc.MemCapBytes > 0 {
			backend.SetTenantMemCap(tc.ID, tc.MemCapBytes)
		}
	}
	return f, nil
}

// shardIdx hashes a key onto a shard.
func shardIdx(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % nShards)
}

func (f *Frontend) sessionShard(tok string) *sessionShard { return &f.sessions[shardIdx(tok)] }

// openSession authenticates a tenant/key pair and mints a bearer token.
func (f *Frontend) openSession(tenant, key string) (token string, expires time.Time, err error) {
	ts, ok := f.tenants[tenant]
	// Compare even on unknown tenants so the two failure modes are
	// indistinguishable on the wire.
	probe := ""
	if ok {
		probe = ts.cfg.Key
	}
	if subtle.ConstantTimeCompare([]byte(probe), []byte(key)) != 1 || !ok {
		return "", time.Time{}, fmt.Errorf("frontend: bad tenant or key: %w", errUnauthenticated)
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", time.Time{}, fmt.Errorf("frontend: token generation: %w", err)
	}
	token = hex.EncodeToString(raw[:])
	expires = f.now().Add(f.ttl)
	sh := f.sessionShard(token)
	sh.mu.Lock()
	sh.m[token] = &session{tenant: tenant, expires: expires}
	sh.mu.Unlock()
	ts.mu.Lock()
	ts.sessions++
	ts.mu.Unlock()
	f.reg.Counter("frontend.sessions_opened").Inc()
	return token, expires, nil
}

// closeSession revokes a token. Reports whether the token was live.
func (f *Frontend) closeSession(token string) bool {
	sh := f.sessionShard(token)
	sh.mu.Lock()
	s, ok := sh.m[token]
	if ok {
		delete(sh.m, token)
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	if ts, found := f.tenants[s.tenant]; found {
		ts.mu.Lock()
		ts.sessions--
		ts.mu.Unlock()
	}
	f.reg.Counter("frontend.sessions_closed").Inc()
	return true
}

// resolveSession maps a bearer token to its tenant state, expiring lazily.
func (f *Frontend) resolveSession(token string) (*tenantState, bool) {
	if token == "" {
		return nil, false
	}
	sh := f.sessionShard(token)
	sh.mu.RLock()
	s, ok := sh.m[token]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if f.now().After(s.expires) {
		f.closeSession(token)
		return nil, false
	}
	ts, ok := f.tenants[s.tenant]
	return ts, ok
}

// takeToken draws one token from the tenant's bucket. On refusal it returns
// the duration after which a token will exist (1s for burst-only buckets,
// whose refusal is permanent).
func (t *tenantState) takeToken(now time.Time) (ok bool, retryAfter time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Burst <= 0 {
		return true, 0
	}
	if t.cfg.RatePerSec > 0 {
		if dt := now.Sub(t.last).Seconds(); dt > 0 {
			t.tokens = math.Min(float64(t.cfg.Burst), t.tokens+dt*t.cfg.RatePerSec)
			t.last = now
		}
	}
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	if t.cfg.RatePerSec <= 0 {
		return false, time.Second
	}
	return false, time.Duration((1 - t.tokens) / t.cfg.RatePerSec * float64(time.Second))
}

// retryHint estimates, without consuming a token, how long this tenant
// should wait before a retry is worth making: the token bucket's time to
// the next token. It returns 0 when a token is already available — the
// refusal was engine-side, and the bucket has no opinion — or when the
// tenant has no refilling bucket to consult.
func (t *tenantState) retryHint(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Burst <= 0 || t.cfg.RatePerSec <= 0 {
		return 0
	}
	if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens = math.Min(float64(t.cfg.Burst), t.tokens+dt*t.cfg.RatePerSec)
		t.last = now
	}
	if t.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - t.tokens) / t.cfg.RatePerSec * float64(time.Second))
}

// beginQuery claims a concurrency slot; endQuery returns it.
func (t *tenantState) beginQuery() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxConcurrent > 0 && t.inFlight >= int64(t.cfg.MaxConcurrent) {
		return false
	}
	t.inFlight++
	return true
}

func (t *tenantState) endQuery() {
	t.mu.Lock()
	t.inFlight--
	t.mu.Unlock()
}

// govSnapshot reads the tenant's frontend-side levels. Refusals are not
// state: they are counted once, in the registry, by tenantGovInc.
func (t *tenantState) govSnapshot() (inFlight, sessions int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inFlight, t.sessions
}
