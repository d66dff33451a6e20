package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
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
	"hwstar/internal/table"
)

// stubBackend answers every join with the sum of its probe values and the
// trace id it was handed, after yielding so that other requests run (and
// reuse pooled body buffers) while it still holds the decoded request. Every
// group-sum gets the same 4096 groups, built once, so whatever a group-sum
// request allocates the frontend allocated; every q6 gets a revenue JSON
// cannot carry.
type stubBackend struct{ reg *metrics.Registry }

var stubGroups = func() map[int64]int64 {
	groups := make(map[int64]int64, 4096)
	for k := int64(0); k < 4096; k++ {
		groups[k-100] = k * 1000003
	}
	return groups
}()

func (b stubBackend) Submit(_ context.Context, req serve.Request) (serve.Response, error) {
	runtime.Gosched()
	switch req.Op {
	case serve.OpGroupSum:
		return serve.Response{Groups: stubGroups, BatchSize: 1}, nil
	case serve.OpQ6:
		return serve.Response{Revenue: math.NaN(), BatchSize: 1}, nil
	}
	var sum int64
	for _, v := range req.Join.ProbeVals {
		sum += v
	}
	return serve.Response{Matches: sum, BatchSize: len(req.TraceID)}, nil
}
func (b stubBackend) Health() serve.Health                     { return serve.Health{State: "ok"} }
func (b stubBackend) Workers() int                             { return 1 }
func (b stubBackend) Metrics() *metrics.Registry               { return b.reg }
func (b stubBackend) SetTenantMemCap(tenant string, cap int64) {}

// newStubHandler mounts a frontend over stubBackend and opens one session.
func newStubHandler(tb testing.TB) (h http.Handler, auth string) {
	h, auth, _ = newStubFrontend(tb)
	return h, auth
}

func newStubFrontend(tb testing.TB) (h http.Handler, auth string, reg *metrics.Registry) {
	tb.Helper()
	reg = metrics.NewRegistry()
	fe, err := New(Config{
		Backend:   stubBackend{reg: reg},
		Tenants:   []TenantConfig{{ID: "acme", Key: "k1"}},
		Lineitems: map[string]*table.Table{"lineitem": nil}, // the stub never opens it
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
	return h, "Bearer " + sess.Token, reg
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

// groupSumBody is an op=group-sum body of n rows over 4096 keys, hwperf's
// shape at n = 65536.
func groupSumBody(tb testing.TB, n int) []byte {
	tb.Helper()
	args := &v1.GroupSumArgs{Keys: make([]int64, n), Vals: make([]int64, n)}
	for i := range args.Keys {
		args.Keys[i] = int64(i*2654435761) % 4096
		args.Vals[i] = int64(i % 1000)
	}
	body, err := json.Marshal(v1.QueryRequest{Op: v1.OpGroupSum, GroupSum: args})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestQueryEncodeFailureIs500: an answer encoding/json refuses used to reach
// the client as a 200 whose body stopped at the offending field, because the
// status line went out before the encoder ran. It is a counted 500 INTERNAL.
func TestQueryEncodeFailureIs500(t *testing.T) {
	h, auth, reg := newStubFrontend(t)
	rec := post(h, auth, []byte(`{"op":"q6","table":"lineitem","trace_id":"nan-1"}`), false)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN revenue: HTTP %d, want 500: %s", rec.Code, rec.Body.Bytes())
	}
	if info := errCode(t, rec.Body.Bytes()); info.Code != v1.CodeInternal || info.Retryable || info.TraceID != "nan-1" {
		t.Fatalf("NaN revenue: error body %+v", info)
	}
	if c := reg.Counters(); c["frontend.queries_failed"] != 1 || c["frontend.queries_ok"] != 0 {
		t.Fatalf("queries_failed = %d, queries_ok = %d, want 1 and 0", c["frontend.queries_failed"], c["frontend.queries_ok"])
	}
}

// TestHandleQueryGroupSumAllocs: the response side of a group-sum builds no
// object per group, and the request side's decoded columns are leased, back
// in their pool once the answer is encoded. A request of 16 rows isolates the
// response: 4096 groups come back on a few dozen allocations, where a string
// and a map entry per group took 12,000. A warm request at hwperf's 65,536
// rows allocates no column either: its bytes are the recorder's copy of the
// answer and a constant, where its two decoded columns alone took 1 MiB.
func TestHandleQueryGroupSumAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	h, auth := newStubHandler(t)
	body := groupSumBody(t, 16)
	var resp v1.QueryResponse
	rec := post(h, auth, body, false)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || len(resp.Result.Groups) != len(stubGroups) {
		t.Fatalf("group-sum: HTTP %d, %v, %d groups", rec.Code, err, len(resp.Result.Groups))
	}
	for k, v := range stubGroups {
		if got, ok := resp.Result.Groups[strconv.FormatInt(k, 10)]; !ok || got != v {
			t.Fatalf("group %d = %d (present %v), want %d", k, got, ok, v)
		}
	}
	var m0, m1 runtime.MemStats
	const rounds = 20
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		post(h, auth, body, false)
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.Mallocs - m0.Mallocs) / rounds
	// The recorder's own copy of the ~70 KB answer is the test's, not the
	// frontend's; it costs a handful of buffer doublings.
	if perOp > 100 {
		t.Fatalf("%d allocations per group-sum request of 16 rows and %d groups", perOp, len(stubGroups))
	}

	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	big := groupSumBody(t, 1<<16)
	for i := 0; i < 3; i++ {
		post(h, auth, big, false)
	}
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		post(h, auth, big, false)
	}
	runtime.ReadMemStats(&m1)
	if perOp := (m1.TotalAlloc - m0.TotalAlloc) / rounds; perOp > 128<<10 {
		t.Fatalf("%d bytes allocated per warm group-sum request of %d rows, ceiling 128 KiB", perOp, 1<<16)
	}
}

// BenchmarkHandleQuery is the frontend layer alone — auth, governance, body
// read, v1 decode, ToServe, AppendResponse — against a backend that costs
// nothing, on a scan body and on hwperf's join and group-sum shapes.
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
	}{{"scan", scan}, {"join", join}, {"group-sum", groupSumBody(b, 65536)}} {
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
