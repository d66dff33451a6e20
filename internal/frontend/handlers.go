package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hwstar/internal/errs"
	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/mem"
	"hwstar/internal/serve"
)

// errUnauthenticated marks frontend-origin auth failures; it never crosses
// the package boundary (handlers map it straight to CodeUnauthenticated).
var errUnauthenticated = errors.New("unauthenticated")

// maxBodyBytes bounds request bodies; inline join/group-sum columns fit
// comfortably, a hostile body cannot balloon the heap.
const maxBodyBytes = 8 << 20

// Handler mounts the v1 API:
//
//	POST   /v1/session            open a session (tenant + key → token)
//	DELETE /v1/session            close the presented session
//	POST   /v1/query              run one query (bearer token)
//	GET    /v1/health             engine health, per-tenant breakdown
//	GET    /v1/tenants/{id}/stats one tenant's stats (that tenant's token)
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", f.handleSessionOpen)
	mux.HandleFunc("DELETE /v1/session", f.handleSessionClose)
	mux.HandleFunc("POST /v1/query", f.handleQuery)
	mux.HandleFunc("GET /v1/health", f.handleHealth)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", f.handleTenantStats)
	return mux
}

// bearer extracts the Authorization bearer token.
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):]
	}
	return ""
}

func (f *Frontend) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	f.reg.Counter("frontend.requests").Inc()
	var req v1.SessionRequest
	if err := decodeBody(r, func(body []byte) error { return v1.DecodeStrict(body, &req) }); err != nil {
		f.writeCode(w, v1.CodeInvalidArgument, http.StatusBadRequest, false, 0, "", err.Error())
		return
	}
	token, expires, err := f.openSession(req.Tenant, req.Key)
	if err != nil {
		f.reg.Counter("frontend.unauthenticated").Inc()
		f.writeCode(w, v1.CodeUnauthenticated, http.StatusUnauthorized, false, 0, "", "bad tenant or key")
		return
	}
	ts := f.tenants[req.Tenant]
	writeJSON(w, http.StatusOK, v1.SessionResponse{
		Token:         token,
		Tenant:        req.Tenant,
		ExpiresUnixMs: expires.UnixMilli(),
		Priority:      ts.cfg.Priority,
	})
}

func (f *Frontend) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	f.reg.Counter("frontend.requests").Inc()
	if !f.closeSession(bearer(r)) {
		f.reg.Counter("frontend.unauthenticated").Inc()
		f.writeCode(w, v1.CodeUnauthenticated, http.StatusUnauthorized, false, 0, "", "unknown or expired session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (f *Frontend) handleQuery(w http.ResponseWriter, r *http.Request) {
	f.reg.Counter("frontend.requests").Inc()
	ts, ok := f.resolveSession(bearer(r))
	if !ok {
		f.reg.Counter("frontend.unauthenticated").Inc()
		f.writeCode(w, v1.CodeUnauthenticated, http.StatusUnauthorized, false, 0, "", "unknown or expired session")
		return
	}
	tenant := ts.cfg.ID

	// Frontend governance runs BEFORE the body is read: a rate-limited or
	// over-quota tenant is refused for the price of a header parse, so a
	// flood of megabyte payloads cannot buy JSON-decode time on the way to
	// its 429. (This also means governance rejections win over body
	// validation: a throttled tenant gets 429, not 400, for a bad body.)
	if ok, retryAfter := ts.takeToken(f.now()); !ok {
		f.tenantGovInc(tenant, "rate_limited")
		f.writeCode(w, v1.CodeRateLimited, http.StatusTooManyRequests, true, retryAfter, "",
			fmt.Sprintf("tenant %q rate limit exceeded", tenant))
		return
	}
	if !ts.beginQuery() {
		f.tenantGovInc(tenant, "quota_rejected")
		f.writeCode(w, v1.CodeQuotaExceeded, http.StatusTooManyRequests, true, time.Second, "",
			fmt.Sprintf("tenant %q at max %d concurrent queries", tenant, ts.cfg.MaxConcurrent))
		return
	}
	defer ts.endQuery()

	// Every router attempt and serve executor holds its own lease reference.
	lease := mem.NewLease()
	defer lease.Release()
	var q v1.QueryRequest
	if err := decodeBody(r, func(body []byte) error { return q.UnmarshalLeased(body, lease) }); err != nil {
		f.tenantGovInc(tenant, "invalid")
		f.writeCode(w, v1.CodeInvalidArgument, http.StatusBadRequest, false, 0, "", err.Error())
		return
	}
	sreq, err := q.ToServe()
	if err != nil {
		f.tenantGovInc(tenant, "invalid")
		f.writeCode(w, v1.CodeInvalidArgument, http.StatusBadRequest, false, 0, q.TraceID, err.Error())
		return
	}
	if q.Priority == "" {
		sreq.Priority = serve.Priority(ts.cfg.Priority)
	}

	if sreq.Op == serve.OpQ1 || sreq.Op == serve.OpQ6 {
		li, found := f.lineitems[q.Table]
		if !found {
			f.tenantGovInc(tenant, "invalid")
			f.writeCode(w, v1.CodeInvalidArgument, http.StatusBadRequest, false, 0, q.TraceID,
				fmt.Sprintf("unknown lineitem table %q", q.Table))
			return
		}
		sreq.Lineitem = li
	}
	sreq.Tenant, sreq.Lease = tenant, lease

	ctx := r.Context()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	start := f.now()
	resp, err := f.srv.Submit(ctx, sreq)
	wallMs := float64(f.now().Sub(start).Microseconds()) / 1000
	if err != nil && !errors.Is(err, errs.ErrPartialResult) {
		f.reg.Counter("frontend.queries_failed").Inc()
		f.writeError(w, ts, q.TraceID, err)
		return
	}
	// A partial result (sharded backend, every replica of some range down)
	// carries a usable answer that is exact over the covered fraction. That
	// is a flagged success on the wire, not an error: the client gets the
	// truth about what survived instead of a retryable 5xx hiding an exact
	// partial sum.
	partial := err != nil

	// The body is built before the status line is written, straight into a
	// pooled buffer (the one the request body was read into, more often than
	// not): an answer JSON cannot carry — a NaN revenue — is a 500, not a 200
	// that stops halfway.
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	body, err := v1.AppendResponse(buf.AvailableBuffer(), &q, tenant, string(sreq.Priority.Lane()), wallMs, resp)
	if err != nil {
		f.reg.Counter("frontend.queries_failed").Inc()
		f.writeCode(w, v1.CodeInternal, http.StatusInternalServerError, false, 0, q.TraceID, err.Error())
		return
	}
	buf.Write(body) // in place when it fit; otherwise the pooled buffer grows to what this answer took
	if partial {
		f.reg.Counter("frontend.queries_partial").Inc()
	}
	f.reg.Counter("frontend.queries_ok").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // a client that hung up is not the server's error
}

func (f *Frontend) handleHealth(w http.ResponseWriter, r *http.Request) {
	f.reg.Counter("frontend.requests").Inc()
	h := f.srv.Health()
	out := v1.HealthResponse{
		Status:         h.State,
		QueueDepth:     h.QueueDepth,
		Workers:        f.srv.Workers(),
		Admitted:       h.Admitted,
		Completed:      h.Completed,
		Failed:         h.Failed,
		Shed:           h.MemShed,
		MemInUseBytes:  h.Memory.InUseBytes,
		MemBudgetBytes: h.Memory.BudgetBytes,
	}
	if h.Durable {
		out.Durable = true
		out.StoreVersion = h.StoreVersion
		out.RecoveredTables = h.Recovery.TablesTotal
		out.RecoveredHot = h.Recovery.TablesTotal // every recovered table is resident
		out.RecoveryFallbacks = h.Recovery.Fallbacks
		out.Checkpoints = h.Checkpoints
		out.CheckpointFailures = h.CheckpointFailures
	}
	if len(h.Tenants) > 0 {
		c := f.reg.Counters()
		out.Tenants = make(map[string]v1.TenantStats, len(h.Tenants))
		for id, th := range h.Tenants {
			out.Tenants[id] = f.wireTenantStats(id, th, c)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (f *Frontend) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	f.reg.Counter("frontend.requests").Inc()
	ts, ok := f.resolveSession(bearer(r))
	if !ok {
		f.reg.Counter("frontend.unauthenticated").Inc()
		f.writeCode(w, v1.CodeUnauthenticated, http.StatusUnauthorized, false, 0, "", "unknown or expired session")
		return
	}
	id := r.PathValue("id")
	// A tenant may read only its own stats; anything else is indistinguishable
	// from a tenant that does not exist.
	if id != ts.cfg.ID {
		f.writeCode(w, v1.CodeNotFound, http.StatusNotFound, false, 0, "", fmt.Sprintf("no tenant %q", id))
		return
	}
	writeJSON(w, http.StatusOK, f.wireTenantStats(id, f.srv.TenantHealth(id), f.reg.Counters()))
}

// wireTenantStats merges the engine's per-tenant health with the frontend's
// governance counters (read from the registry snapshot c, where tenantGovInc
// counts them) onto the wire DTO.
func (f *Frontend) wireTenantStats(id string, th serve.TenantHealth, c map[string]int64) v1.TenantStats {
	out := v1.TenantStats{
		Tenant:           id,
		Admitted:         th.Admitted,
		Completed:        th.Completed,
		Failed:           th.Failed,
		Rejected:         th.Rejected,
		Shed:             th.Shed,
		MemShed:          th.MemShed,
		DeadlineExceeded: th.DeadlineExceeded,
		Spills:           th.Spills,
		SpillBytes:       th.SpillBytes,
		LatencyP50Ms:     th.LatencyMs.P50,
		LatencyP99Ms:     th.LatencyMs.P99,
		MemInUseBytes:    th.MemInUseBytes,
		MemCapBytes:      th.MemCapBytes,
		RateLimited:      c["frontend.tenant."+id+".rate_limited"],
		QuotaRejected:    c["frontend.tenant."+id+".quota_rejected"],
	}
	if ts, ok := f.tenants[id]; ok {
		out.InFlight, out.Sessions = ts.govSnapshot()
	}
	return out
}

// tenantGovInc counts a frontend governance event, in total and under the
// tenant's dimension. These registry counters are the only count kept.
func (f *Frontend) tenantGovInc(tenant, metric string) {
	f.reg.Counter("frontend." + metric).Inc()
	f.reg.Counter("frontend.tenant." + tenant + "." + metric).Inc()
}

// bodyPool recycles body buffers, request and response alike: a megabyte
// inline body is read into memory once, at its Content-Length, instead of
// being re-buffered by doubling on every request, and the answer is encoded
// into whatever capacity the last body left.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(buf *bytes.Buffer) {
	buf.Reset()
	bodyPool.Put(buf)
}

// decodeBody reads the whole body (at most maxBodyBytes) into a pooled
// buffer and hands it to decode, which must be strict and must not keep a
// reference into the bytes: the buffer goes back to the pool on return.
func decodeBody(r *http.Request, decode func(body []byte) error) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	// Room for the declared length plus ReadFrom's final, empty read; an
	// undeclared (chunked) body grows the buffer as it arrives.
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxBodyBytes)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes)); err != nil {
		return fmt.Errorf("malformed JSON body: %w", err)
	}
	if err := decode(buf.Bytes()); err != nil {
		return fmt.Errorf("malformed JSON body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeError maps an engine error through the v1 code table. 429s carry a
// Retry-After so well-behaved clients back off: the tenant's token bucket is
// consulted, and if the tenant is also out of tokens the hint is the actual
// time to the next token, not a flat second.
func (f *Frontend) writeError(w http.ResponseWriter, ts *tenantState, traceID string, err error) {
	code, status, retryable := v1.CodeFor(err)
	retryAfter := time.Duration(0)
	if status == http.StatusTooManyRequests {
		retryAfter = time.Second
		if ts != nil {
			if hint := ts.retryHint(f.now()); hint > 0 {
				retryAfter = hint
			}
		}
	}
	f.writeCode(w, code, status, retryable, retryAfter, traceID, err.Error())
}

// writeCode writes one structured error body.
func (f *Frontend) writeCode(w http.ResponseWriter, code string, status int, retryable bool, retryAfter time.Duration, traceID, msg string) {
	info := v1.ErrorInfo{Code: code, Message: msg, Retryable: retryable, TraceID: traceID}
	if retryAfter > 0 {
		info.RetryAfterMs = retryAfter.Milliseconds()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, status, v1.ErrorBody{Error: info})
}
