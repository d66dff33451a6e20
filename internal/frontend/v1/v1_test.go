package v1

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hwstar/internal/agg"
	"hwstar/internal/errs"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/queries"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

// toServeCases is the wire → engine mapping as a table: one row per op and
// per identifier the wire accepts, then one per rejection. want is the exact
// serve.Request ToServe must produce; rejected rows must wrap
// ErrInvalidInput. The rows also seed FuzzToServe.
var toServeCases = []struct {
	name   string
	body   string
	want   serve.Request
	reject bool
}{
	{name: "scan", body: `{"op":"scan","table":"t","scan":{"filter_col":0,"lo":-5,"hi":9,"agg_col":1}}`,
		want: serve.Request{Op: serve.OpScan, Priority: serve.PriorityInteractive, Table: "t",
			Query: scan.Query{FilterCol: 0, Lo: -5, Hi: 9, AggCol: 1}}},
	{name: "scan batch priority and trace id", body: `{"op":"scan","priority":"batch","trace_id":"abc","table":"t","scan":{"filter_col":1,"lo":0,"hi":0,"agg_col":1}}`,
		want: serve.Request{Op: serve.OpScan, Priority: serve.PriorityBatch, TraceID: "abc", Table: "t",
			Query: scan.Query{FilterCol: 1, AggCol: 1}}},
	{name: "scan explicit interactive", body: `{"op":"scan","priority":"interactive","table":"t","scan":{}}`,
		want: serve.Request{Op: serve.OpScan, Priority: serve.PriorityInteractive, Table: "t"}},
	{name: "join default algorithm", body: `{"op":"join","join":{"build_keys":[1,2],"build_vals":[10,20],"probe_keys":[2],"probe_vals":[7]}}`,
		want: serve.Request{Op: serve.OpJoin, Priority: serve.PriorityInteractive, Algorithm: "auto",
			Join: join.Input{BuildKeys: []int64{1, 2}, BuildVals: []int64{10, 20}, ProbeKeys: []int64{2}, ProbeVals: []int64{7}}}},
	{name: "join auto", body: `{"op":"join","join":{"algorithm":"auto"}}`,
		want: serve.Request{Op: serve.OpJoin, Priority: serve.PriorityInteractive, Algorithm: "auto"}},
	{name: "join npo", body: `{"op":"join","join":{"algorithm":"npo"}}`,
		want: serve.Request{Op: serve.OpJoin, Priority: serve.PriorityInteractive, Algorithm: join.AlgNPO}},
	{name: "join radix", body: `{"op":"join","join":{"algorithm":"radix","build_keys":[3],"build_vals":[4]}}`,
		want: serve.Request{Op: serve.OpJoin, Priority: serve.PriorityInteractive, Algorithm: join.AlgRadix,
			Join: join.Input{BuildKeys: []int64{3}, BuildVals: []int64{4}}}},
	{name: "group-sum default strategy", body: `{"op":"group-sum","group_sum":{"keys":[1,1,2],"vals":[5,6,7]}}`,
		want: serve.Request{Op: serve.OpGroupSum, Priority: serve.PriorityInteractive, Strategy: agg.StrategyLocalMerge,
			Keys: []int64{1, 1, 2}, Vals: []int64{5, 6, 7}}},
	{name: "group-sum global-atomic", body: `{"op":"group-sum","group_sum":{"strategy":"global-atomic"}}`,
		want: serve.Request{Op: serve.OpGroupSum, Priority: serve.PriorityInteractive, Strategy: agg.StrategyGlobal}},
	{name: "group-sum local-merge", body: `{"op":"group-sum","group_sum":{"strategy":"local-merge"}}`,
		want: serve.Request{Op: serve.OpGroupSum, Priority: serve.PriorityInteractive, Strategy: agg.StrategyLocalMerge}},
	{name: "group-sum radix-partitioned", body: `{"op":"group-sum","group_sum":{"strategy":"radix-partitioned","keys":[9],"vals":[1]}}`,
		want: serve.Request{Op: serve.OpGroupSum, Priority: serve.PriorityInteractive, Strategy: agg.StrategyRadix,
			Keys: []int64{9}, Vals: []int64{1}}},
	{name: "q1 default engine", body: `{"op":"q1","table":"lineitem"}`,
		want: serve.Request{Op: serve.OpQ1, Priority: serve.PriorityInteractive, Table: "lineitem", Engine: queries.EngineFused}},
	{name: "q1 volcano", body: `{"op":"q1","table":"lineitem","engine":"volcano"}`,
		want: serve.Request{Op: serve.OpQ1, Priority: serve.PriorityInteractive, Table: "lineitem", Engine: queries.EngineVolcano}},
	{name: "q6 vectorized", body: `{"op":"q6","table":"lineitem","engine":"vectorized"}`,
		want: serve.Request{Op: serve.OpQ6, Priority: serve.PriorityInteractive, Table: "lineitem", Engine: queries.EngineVectorized}},
	{name: "q6 fused batch", body: `{"op":"q6","priority":"batch","table":"lineitem","engine":"fused"}`,
		want: serve.Request{Op: serve.OpQ6, Priority: serve.PriorityBatch, Table: "lineitem", Engine: queries.EngineFused}},

	{name: "empty op", body: `{}`, reject: true},
	{name: "unknown op", body: `{"op":"drop","table":"t"}`, reject: true},
	{name: "op is case-sensitive", body: `{"op":"SCAN","table":"t","scan":{}}`, reject: true},
	{name: "unknown priority", body: `{"op":"scan","priority":"urgent","table":"t","scan":{}}`, reject: true},
	{name: "scan without table", body: `{"op":"scan","scan":{"lo":1,"hi":2}}`, reject: true},
	{name: "scan without args", body: `{"op":"scan","table":"t"}`, reject: true},
	{name: "join without args", body: `{"op":"join"}`, reject: true},
	{name: "join algorithm the server does not run", body: `{"op":"join","join":{"algorithm":"sort-merge"}}`, reject: true},
	{name: "group-sum without args", body: `{"op":"group-sum"}`, reject: true},
	{name: "group-sum args under the wrong key", body: `{"op":"group-sum","join":{}}`, reject: true},
	{name: "unknown strategy", body: `{"op":"group-sum","group_sum":{"strategy":"hash"}}`, reject: true},
	{name: "q1 without table", body: `{"op":"q1"}`, reject: true},
	{name: "unknown engine", body: `{"op":"q6","table":"lineitem","engine":"jit"}`, reject: true},
}

func TestToServe(t *testing.T) {
	for _, c := range toServeCases {
		t.Run(c.name, func(t *testing.T) {
			var q QueryRequest
			if err := json.Unmarshal([]byte(c.body), &q); err != nil {
				t.Fatalf("body does not decode: %v", err)
			}
			got, err := q.ToServe()
			if c.reject {
				if !errors.Is(err, errs.ErrInvalidInput) {
					t.Fatalf("err = %v, want ErrInvalidInput", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("got  %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// FuzzToServe feeds arbitrary bytes through the wire decode and ToServe.
// Nothing may panic, and ToServe must not accept what the engine's own
// validation turns away for its form: a request ToServe accepts is rejected
// by serve.Server.Submit only for what ToServe leaves to the engine — the
// table name and the data's shape (scan.Query.Validate, join.Input.Validate,
// equal group-sum column lengths) — and otherwise runs to an answer.
func FuzzToServe(f *testing.F) {
	for _, c := range toServeCases {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"op":"scan","table":"t","scan":{"filter_col":2,"lo":9,"hi":1,"agg_col":-1}}`))
	f.Add([]byte(`{"op":"join","join":{"build_keys":[1],"probe_vals":[2,3]}}`))
	f.Add([]byte(`{"op":"group-sum","group_sum":{"keys":[1],"vals":[]}}`))
	f.Add([]byte(`[`))

	srv, err := serve.New(hw.Laptop(), serve.Options{MaxBatch: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	if err := srv.Register("t", [][]int64{{1, 2, 3}, {10, 20, 30}}); err != nil {
		f.Fatal(err)
	}
	lineitem := workload.LineItem(1, 64)

	f.Fuzz(func(t *testing.T, body []byte) {
		var q QueryRequest
		if json.Unmarshal(body, &q) != nil {
			return
		}
		req, err := q.ToServe()
		if err != nil {
			if !errors.Is(err, errs.ErrInvalidInput) {
				t.Fatalf("rejection is not ErrInvalidInput: %v", err)
			}
			return
		}
		var shape error // what ToServe leaves to the engine
		switch req.Op {
		case serve.OpScan:
			if shape = req.Query.Validate(2); shape == nil && req.Table != "t" {
				shape = errs.ErrInvalidInput
			}
		case serve.OpJoin:
			shape = req.Join.Validate()
		case serve.OpGroupSum:
			if len(req.Keys) != len(req.Vals) {
				shape = errs.ErrInvalidInput
			}
		case serve.OpQ1, serve.OpQ6:
			req.Lineitem = lineitem // the frontend resolves the name
		}
		invalidBefore := srv.Metrics().Counters()["serve.invalid"]
		_, err = srv.Submit(context.Background(), req)
		rejected := srv.Metrics().Counters()["serve.invalid"] > invalidBefore
		switch {
		case shape == nil && rejected:
			t.Fatalf("ToServe accepted what serve's validation rejects: %v\nbody %s", err, body)
		case shape == nil && err != nil:
			t.Fatalf("valid request failed: %v\nbody %s", err, body)
		case shape != nil && !rejected:
			t.Fatalf("serve accepted a malformed request (%v)\nbody %s", shape, body)
		}
	})
}

// TestResponseFromWireText: group keys and the join checksum are built with
// strconv; the text on the wire is what fmt produced before, byte for byte.
func TestResponseFromWireText(t *testing.T) {
	for _, sum := range []uint64{0, 1, 0xabc, 0x0123456789abcdef, math.MaxUint64} {
		got := ResponseFrom(&QueryRequest{Op: OpJoin}, "", "", 0, serve.Response{Checksum: sum}).Result.Checksum
		if want := fmt.Sprintf("%016x", sum); got != want {
			t.Errorf("checksum %d: %q, want %q", sum, got, want)
		}
	}
	groups := map[int64]int64{0: 1, -1: 2, 42: -3, math.MinInt64: 4, math.MaxInt64: 5}
	got := ResponseFrom(&QueryRequest{Op: OpGroupSum}, "", "", 0, serve.Response{Groups: groups}).Result.Groups
	if len(got) != len(groups) {
		t.Fatalf("%d groups on the wire, want %d", len(got), len(groups))
	}
	for k, v := range groups {
		if w, ok := got[fmt.Sprintf("%d", k)]; !ok || w != v {
			t.Errorf("group %d: %d (present %v), want %d", k, w, ok, v)
		}
	}

	body, err := json.Marshal(ResponseFrom(&QueryRequest{Op: OpJoin, TraceID: "t1"}, "acme", "interactive", 1.5,
		serve.Response{Matches: 3, Checksum: 0xbeef, BatchSize: 1}))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"op":"join","tenant":"acme","priority":"interactive","trace_id":"t1","cost":{"sim_cycles":0,"wall_ms":1.5,"batch_size":1},"spill":{"spilled":false,"bytes":0},"result":{"sum":0,"matches":3,"checksum":"000000000000beef"}}`
	if string(body) != want {
		t.Fatalf("join response on the wire\ngot  %s\nwant %s", body, want)
	}
}
