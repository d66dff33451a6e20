package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/metrics"
	"hwstar/internal/serve"
)

// stubBackend answers every join with the sum of its probe values and the
// trace id it was handed, after yielding so that other requests run (and
// reuse pooled body buffers) while it still holds the decoded request.
type stubBackend struct{ reg *metrics.Registry }

func (b stubBackend) Submit(_ context.Context, req serve.Request) (serve.Response, error) {
	runtime.Gosched()
	var sum int64
	for _, v := range req.Join.ProbeVals {
		sum += v
	}
	return serve.Response{Matches: sum, BatchSize: len(req.TraceID)}, nil
}
func (b stubBackend) Health() serve.Health                     { return serve.Health{State: "ok"} }
func (b stubBackend) TenantHealth(string) serve.TenantHealth   { return serve.TenantHealth{} }
func (b stubBackend) Workers() int                             { return 1 }
func (b stubBackend) Metrics() *metrics.Registry               { return b.reg }
func (b stubBackend) SetTenantMemCap(tenant string, cap int64) {}

// newStubHandler mounts a frontend over stubBackend and opens one session.
func newStubHandler(tb testing.TB) (h http.Handler, auth string) {
	tb.Helper()
	fe, err := New(Config{
		Backend: stubBackend{reg: metrics.NewRegistry()},
		Tenants: []TenantConfig{{ID: "acme", Key: "k1"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	h = fe.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/session", strings.NewReader(`{"tenant":"acme","key":"k1"}`)))
	var sess v1.SessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("session open: HTTP %d, %v", rec.Code, err)
	}
	return h, "Bearer " + sess.Token
}

// joinBody is an op=join body of n probe rows whose values sum to want.
func joinBody(tb testing.TB, traceID string, n int, seed int64) (body []byte, want int64) {
	tb.Helper()
	args := &v1.JoinArgs{
		BuildKeys: make([]int64, n/4), BuildVals: make([]int64, n/4),
		ProbeKeys: make([]int64, n), ProbeVals: make([]int64, n),
	}
	for i := range args.ProbeVals {
		args.ProbeKeys[i] = int64(i) % int64(n/4+1)
		args.ProbeVals[i] = seed + int64(i)
		want += args.ProbeVals[i]
	}
	body, err := json.Marshal(v1.QueryRequest{Op: v1.OpJoin, TraceID: traceID, Join: args})
	if err != nil {
		tb.Fatal(err)
	}
	return body, want
}

// post sends one query body to the handler with no socket in between.
// chunked hides the length, as a Transfer-Encoding: chunked request does.
func post(h http.Handler, auth string, body []byte, chunked bool) *httptest.ResponseRecorder {
	var rd io.Reader = bytes.NewReader(body)
	if chunked {
		rd = struct{ io.Reader }{rd}
	}
	req := httptest.NewRequest("POST", "/v1/query", rd)
	req.Header.Set("Authorization", auth)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestDecodedRequestOutlivesPooledBody: the body buffer goes back to the
// pool before the query runs, so concurrent requests overwrite it while the
// backend still reads the decoded request. Every answer must be computed
// from, and echo, the request's own columns and strings (run under -race).
func TestDecodedRequestOutlivesPooledBody(t *testing.T) {
	h, auth := newStubHandler(t)
	const clients, rounds = 4, 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				traceID := "client-" + strconv.Itoa(c) + "-round-" + strconv.Itoa(r)
				// Sizes differ so a reused buffer holds a longer or a
				// shorter stranger's body.
				body, want := joinBody(t, traceID, 64+512*((c+r)%5), int64(1000*c+r))
				rec := post(h, auth, body, r%2 == 1)
				var resp v1.QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("%s: HTTP %d, %v: %s", traceID, rec.Code, err, rec.Body.Bytes())
					return
				}
				if resp.TraceID != traceID || resp.Cost.BatchSize != len(traceID) || resp.Result.Matches != want {
					t.Errorf("%s: answered trace %q (backend saw %d bytes of id), sum %d, want %d",
						traceID, resp.TraceID, resp.Cost.BatchSize, resp.Result.Matches, want)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestBodySizeLimit: a body is accepted up to maxBodyBytes and refused past
// it, whether or not it declares its length.
func TestBodySizeLimit(t *testing.T) {
	h, auth := newStubHandler(t)
	body, want := joinBody(t, "", 4096, 7)
	pad := func(total int) []byte { // trailing whitespace is still JSON
		return append(bytes.Clone(body), bytes.Repeat([]byte{' '}, total-len(body))...)
	}
	for _, chunked := range []bool{false, true} {
		rec := post(h, auth, pad(maxBodyBytes), chunked)
		var resp v1.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Result.Matches != want {
			t.Fatalf("chunked=%v: body of exactly the limit: HTTP %d, %v: %s", chunked, rec.Code, err, rec.Body.Bytes())
		}
		rec = post(h, auth, pad(maxBodyBytes+1), chunked)
		if rec.Code != http.StatusBadRequest || errCode(t, rec.Body.Bytes()).Code != v1.CodeInvalidArgument {
			t.Fatalf("chunked=%v: oversize body: HTTP %d: %s", chunked, rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkHandleQuery is the frontend layer alone — auth, governance, body
// read, v1 decode, ToServe, ResponseFrom, encode — against a backend that
// costs nothing, on a scan body and on hwperf's join shape.
func BenchmarkHandleQuery(b *testing.B) {
	h, auth := newStubHandler(b)
	scan, err := json.Marshal(v1.QueryRequest{Op: v1.OpScan, Table: "events", Scan: &v1.ScanArgs{Lo: 41000, Hi: 46000, AggCol: 1}})
	if err != nil {
		b.Fatal(err)
	}
	join, _ := joinBody(b, "", 16384, 1)
	for _, c := range []struct {
		name string
		body []byte
	}{{"scan", scan}, {"join", join}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := post(h, auth, c.body, false); rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
