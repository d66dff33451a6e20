package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/frontend"
	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/mem"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

// holdCtx parks the first caller of Value until release is closed, having
// closed held. Under a fan-out the first caller is an attempt's executor,
// inside its operator: the router and serve's admission read no value.
type holdCtx struct {
	context.Context
	first         atomic.Bool
	held, release chan struct{}
}

func (c *holdCtx) Value(key any) any {
	if c.first.CompareAndSwap(false, true) {
		close(c.held)
		<-c.release
	}
	return c.Context.Value(key)
}

// TestHedgeLoserHoldsLease pins the lease rule of the fan-out: every attempt
// holds a reference to the request's lease from launch until it reports, and
// the replica's server holds one until its executor settles. One group-sum
// goes to two replicas with a 1ns hedge; whichever executor reads the context
// first is held inside its operator, and the other answers. Once the loser's
// attempt has reported and the caller has dropped its reference, only the
// held executor's is left: a fresh lease must not be handed the held columns.
// Once it is let go they are back in the pool.
func TestHedgeLoserHoldsLease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	const n = 1 << 12
	r := newRouter(t, Options{Shards: 2, Replicas: 2, hedgeDelay: time.Nanosecond})
	ctx := &holdCtx{Context: context.Background(), held: make(chan struct{}), release: make(chan struct{})}
	letGo := sync.OnceFunc(func() { close(ctx.release) })
	defer letGo()

	lease := mem.NewLease()
	keys, vals := lease.Column(n), lease.Column(n)
	want := fillGroupSum(keys, vals, 1)
	f := newFanout(1)
	f.add(serve.Request{Op: serve.OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyGlobal, Lease: lease}, 0, []int{0, 1})
	r.run(ctx, f)
	if s := &f.subs[0]; s.err != nil || !s.hedged || !maps.Equal(s.resp.Groups, want) {
		t.Fatalf("hedged group-sum: err %v, hedged %v, %d groups, want %d", s.err, s.hedged, len(s.resp.Groups), len(want))
	}
	select {
	case <-ctx.held:
	default:
		t.Fatal("no executor was held: the test drove nothing through a hedge loser")
	}
	// The loser's Submit returned on run's cancel; its attempt reports after
	// dropping its reference.
	select {
	case <-f.done:
		f.outstanding--
	case <-time.After(5 * time.Second):
		t.Fatal("the hedge loser's attempt never reported")
	}
	f.release()
	lease.Release()

	held := map[*int64]bool{&keys[0]: true, &vals[0]: true}
	fresh := mem.NewLease()
	for i := 0; i < 4; i++ {
		if col := fresh.Column(n); held[&col[0]] {
			t.Fatal("a fresh lease was handed a column the held loser still reads")
		}
	}
	fresh.Release()

	letGo()
	// The executor settles before it sends the release that frees its cores.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := 0
		for _, nd := range r.nodes {
			srv := nd.srv.Load()
			busy += srv.Workers() - int(srv.Metrics().Gauge("serve.cores_free").Value())
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held executor never finished")
		}
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	again := mem.NewLease()
	defer again.Release()
	found := 0
	for i := 0; i < 8 && found < 2; i++ {
		if col := again.Column(n); held[&col[0]] {
			found++
		}
	}
	if found < 2 {
		t.Fatal("the held executor's settle did not return the columns to the pool")
	}
}

// fillGroupSum writes every element of keys and vals from seed and returns
// the group sums they make.
func fillGroupSum(keys, vals []int64, seed int64) map[int64]int64 {
	want := make(map[int64]int64)
	for i := range keys {
		keys[i], vals[i] = (int64(i)*seed)%61, int64(i)+seed
		want[keys[i]] += vals[i]
	}
	return want
}

// TestLeasedRequestsOverHedgedRouter runs the whole lease chain: a frontend
// decodes each body into leased columns, the router shuffles joins into
// leased partitions (the planner shuffles a 1024 x 4096 join over three
// nodes), and every attempt and executor holds the lease. A 1ns
// hedge leaves most requests with a loser still reading when the frontend
// releases. Clients post distinct group-sum and join bodies at once, so a
// column recycled under a reader shows as a wrong answer to some client, or
// under -race as a reported race with the next decode.
func TestLeasedRequestsOverHedgedRouter(t *testing.T) {
	const clients, requests = 6, 12
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Nanosecond})
	fe, err := frontend.New(frontend.Config{Backend: r, Tenants: []frontend.TenantConfig{{ID: "acme", Key: "k1"}}})
	if err != nil {
		t.Fatal(err)
	}
	h := fe.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/session", strings.NewReader(`{"tenant":"acme","key":"k1"}`)))
	var sess v1.SessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
		t.Fatalf("session open: HTTP %d, %v", rec.Code, err)
	}
	auth := "Bearer " + sess.Token

	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < requests; i++ {
				seed := int64(c*requests + i + 1)
				q, check := leasedQuery(seed, i%2 == 0)
				body, err := json.Marshal(q)
				if err == nil {
					req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
					req.Header.Set("Authorization", auth)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					var resp v1.QueryResponse
					if err = json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != 200 {
						err = fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
					} else {
						err = check(resp.Result)
					}
				}
				if err != nil {
					errc <- fmt.Errorf("client %d request %d (%s): %w", c, i, q.Op, err)
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if ch := r.ClusterHealth(); ch.Hedges == 0 {
		t.Fatal("1ns hedge delay produced no hedges")
	}
}

// leasedQuery builds a group-sum or a join whose columns are drawn from seed,
// and the check of its answer.
func leasedQuery(seed int64, groupSum bool) (v1.QueryRequest, func(v1.Result) error) {
	if groupSum {
		keys, vals := make([]int64, 4096), make([]int64, 4096)
		want := fillGroupSum(keys, vals, seed)
		return v1.QueryRequest{Op: v1.OpGroupSum, GroupSum: &v1.GroupSumArgs{Keys: keys, Vals: vals}}, func(got v1.Result) error {
			if len(got.Groups) != len(want) {
				return fmt.Errorf("%d groups, want %d", len(got.Groups), len(want))
			}
			for k, v := range want {
				if got.Groups[strconv.FormatInt(k, 10)] != v {
					return fmt.Errorf("group %d = %d, want %d", k, got.Groups[strconv.FormatInt(k, 10)], v)
				}
			}
			return nil
		}
	}
	args := &v1.JoinArgs{
		BuildKeys: workload.UniformInts(seed, 1024, 2048), BuildVals: workload.UniformInts(seed+1, 1024, 1000),
		ProbeKeys: workload.UniformInts(seed+2, 4096, 2048), ProbeVals: workload.UniformInts(seed+3, 4096, 1000),
	}
	build := make(map[int64][]int64)
	for i, k := range args.BuildKeys {
		build[k] = append(build[k], args.BuildVals[i])
	}
	var matches int64
	var checksum uint64
	for i, k := range args.ProbeKeys {
		for _, bv := range build[k] {
			matches++
			checksum += uint64(bv)*0x9E3779B97F4A7C15>>7 + uint64(args.ProbeVals[i])
		}
	}
	return v1.QueryRequest{Op: v1.OpJoin, Join: args}, func(got v1.Result) error {
		if want := fmt.Sprintf("%016x", checksum); got.Matches != matches || got.Checksum != want {
			return fmt.Errorf("join = %d/%s, want %d/%s", got.Matches, got.Checksum, matches, want)
		}
		return nil
	}
}
