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
		f.tenantGovInc(ts, outRateLimited)
		f.writeCode(w, v1.CodeRateLimited, http.StatusTooManyRequests, true, retryAfter, "",
			fmt.Sprintf("tenant %q rate limit exceeded", tenant))
		return
	}
	if !ts.beginQuery() {
		f.tenantGovInc(ts, outQuotaRejected)
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
		f.tenantGovInc(ts, outInvalid)
		f.writeCode(w, v1.CodeInvalidArgument, http.StatusBadRequest, false, 0, "", err.Error())
		return
	}
	sreq, err := q.ToServe()
	if err != nil {
		f.tenantGovInc(ts, outInvalid)
		f.writeCode(w, v1.CodeInvalidArgument, http.StatusBadRequest, false, 0, q.TraceID, err.Error())
		return
	}
	if q.Priority == "" {
		sreq.Priority = serve.Priority(ts.cfg.Priority)
	}

	if sreq.Op == serve.OpQ1 || sreq.Op == serve.OpQ6 {
		li, found := f.lineitems[q.Table]
		if !found {
			f.tenantGovInc(ts, outInvalid)
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
	// Wall time is read off the real clock even under an injected Now: it
	// is what the tenant waited for, and it feeds the tenant's latency.
	start := time.Now()
	resp, err := f.srv.Submit(ctx, sreq)
	wallMs := float64(time.Since(start).Microseconds()) / 1000
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
		ts.ledger.count[outFailed].Inc()
		f.writeCode(w, v1.CodeInternal, http.StatusInternalServerError, false, 0, q.TraceID, err.Error())
		return
	}
	buf.Write(body) // in place when it fit; otherwise the pooled buffer grows to what this answer took
	if partial {
		f.reg.Counter("frontend.queries_partial").Inc()
	}
	f.reg.Counter("frontend.queries_ok").Inc()
	ts.ledger.completed(wallMs, &resp)
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
	// The admission totals are the tenant ledgers' sum: each query once,
	// where the engine behind a router counts one per stripe.
	for id, ts := range f.tenants {
		if !ts.ledger.counted() {
			continue
		}
		if out.Tenants == nil {
			out.Tenants = make(map[string]v1.TenantStats)
		}
		st := wireTenantStats(ts, h.Memory.TenantInUse)
		out.Admitted += st.Admitted
		out.Completed += st.Completed
		out.Failed += st.Failed
		out.Shed += st.MemShed
		out.Tenants[id] = st
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
	writeJSON(w, http.StatusOK, wireTenantStats(ts, f.srv.Health().Memory.TenantInUse))
}

// wireTenantStats puts one tenant's ledger on the wire, with its
// frontend-side levels, its configured memory cap and the bytes the engine
// holds for it now (inUse is the backend's mem.Stats.TenantInUse).
func wireTenantStats(ts *tenantState, inUse map[string]int64) v1.TenantStats {
	l := &ts.ledger
	n := func(o outcome) int64 { return l.count[o].Value() }
	lat := l.latency.Stats()
	out := v1.TenantStats{
		Tenant:           ts.cfg.ID,
		Admitted:         n(outCompleted) + n(outFailed) + n(outDeadlineExceeded),
		Completed:        n(outCompleted),
		Failed:           n(outFailed),
		Rejected:         n(outRejected),
		MemShed:          n(outMemShed),
		DeadlineExceeded: n(outDeadlineExceeded),
		Spills:           l.spills.Value(),
		SpillBytes:       l.spillBytes.Value(),
		RateLimited:      n(outRateLimited),
		QuotaRejected:    n(outQuotaRejected),
		LatencyP50Ms:     lat.P50,
		LatencyP99Ms:     lat.P99,
		MemInUseBytes:    inUse[ts.cfg.ID],
		MemCapBytes:      ts.cfg.MemCapBytes,
	}
	out.InFlight, out.Sessions = ts.govSnapshot()
	return out
}

// tenantGovInc counts a query the frontend refused itself (o is invalid,
// rate_limited or quota_rejected): in the frontend's total and in the
// tenant's ledger.
func (f *Frontend) tenantGovInc(ts *tenantState, o outcome) {
	f.refused[o].Inc()
	ts.ledger.count[o].Inc()
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

// writeError maps an engine error through the v1 code table and counts it in
// the tenant's ledger under the code it maps to. 429s carry a Retry-After so
// well-behaved clients back off: the tenant's token bucket is consulted, and
// if the tenant is also out of tokens the hint is the actual time to the next
// token, not a flat second.
func (f *Frontend) writeError(w http.ResponseWriter, ts *tenantState, traceID string, err error) {
	code, status, retryable := v1.CodeFor(err)
	ts.ledger.engineError(code)
	retryAfter := time.Duration(0)
	if status == http.StatusTooManyRequests {
		retryAfter = time.Second
		if hint := ts.retryHint(f.now()); hint > 0 {
			retryAfter = hint
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
