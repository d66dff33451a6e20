package v1

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hwstar/internal/mem"
)

// benchBodies are query bodies in the shapes cmd/hwperf/data.go generates
// (json.Marshal of a QueryRequest), at its inline_mixed sizes.
func benchBodies(tb testing.TB) map[string][]byte {
	col := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	reqs := map[string]QueryRequest{
		"scan": {Op: OpScan, Table: "events", Scan: &ScanArgs{FilterCol: 0, Lo: 41000, Hi: 46000, AggCol: 1}},
		"join": {Op: OpJoin, Join: &JoinArgs{
			BuildKeys: col(4096, func(i int) int64 { return int64(i) }),
			BuildVals: col(4096, func(i int) int64 { return int64(i) * 7 % 1000 }),
			ProbeKeys: col(16384, func(i int) int64 { return int64(i*2654435761) % 8192 }),
			ProbeVals: col(16384, func(i int) int64 { return -int64(i) }),
		}},
		"group-sum": {Op: OpGroupSum, GroupSum: &GroupSumArgs{
			Keys: col(65536, func(i int) int64 { return int64(i*40503) % 4096 }),
			Vals: col(65536, func(i int) int64 { return int64(i) % 1000 }),
		}},
		"q6": {Op: OpQ6, Table: "lineitem"},
	}
	out := make(map[string][]byte, len(reqs))
	for name, q := range reqs {
		body, err := json.Marshal(q)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = body
	}
	return out
}

// TestFastPathTakesGeneratedBodies: every body shape the benchmark sends is
// decoded by the single-pass decoder, never by the encoding/json fallback,
// and comes out as the fallback would have produced it.
func TestFastPathTakesGeneratedBodies(t *testing.T) {
	bodies := benchBodies(t)
	for _, c := range toServeCases {
		bodies["case "+c.name] = []byte(c.body)
	}
	bodies["spaced"] = []byte(" {\n\t\"op\" : \"join\" , \"join\" : { \"build_keys\" : [ 1 , -2 ,\r\n3 ] , \"build_vals\":[] } }\n")
	for name, body := range bodies {
		var want plainQuery
		if err := DecodeStrict(body, &want); err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		before := fastDecodes.Load()
		var got QueryRequest
		if err := got.UnmarshalJSON(body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fastDecodes.Load() != before+1 {
			t.Errorf("%s: decoded by the fallback, want the fast path", name)
		}
		if !reflect.DeepEqual(got, QueryRequest(want)) {
			t.Errorf("%s: fast path and reference disagree", name)
		}
	}
}

// TestNonCanonicalBodiesFallBack: input outside the canonical encoding is
// left to encoding/json — accepted or refused there, never by the fast path.
func TestNonCanonicalBodiesFallBack(t *testing.T) {
	for _, body := range nonCanonicalBodies {
		if _, ok := decodeQuery([]byte(body), nil); ok {
			t.Errorf("fast path accepted %s", body)
		}
	}
	// A destination that already holds something is merged into, as
	// encoding/json does, not overwritten.
	q := QueryRequest{Table: "kept"}
	if err := q.UnmarshalJSON([]byte(`{"op":"q6"}`)); err != nil || q.Table != "kept" || q.Op != OpQ6 {
		t.Fatalf("merge into non-zero destination: %+v, %v", q, err)
	}
}

var nonCanonicalBodies = []string{
	`null`,
	`[`,
	``,
	`{"op":"scan"} x`,
	`{"op":"scan"}{"op":"join"}`,
	`{"OP":"scan"}`,
	`{"op":"scan","op":"join"}`,
	`{"op":"scan","admin":true}`,
	`{"op":"scan\n"}`,
	"{\"op\":\"sc\xffan\"}",
	`{"op":"é"}`,
	`{"op":null}`,
	`{"op":5}`,
	`{"table":"t","scan":null}`,
	`{"scan":{"lo":1e3}}`,
	`{"scan":{"lo":1.0}}`,
	`{"scan":{"lo":01}}`,
	`{"scan":{"lo":-}}`,
	`{"scan":{"lo":- 1}}`,
	`{"scan":{"lo":9223372036854775808}}`,
	`{"scan":{"lo":-9223372036854775809}}`,
	`{"scan":{"lo":18446744073709551617}}`,
	`{"scan":{"lo":"1"}}`,
	`{"scan":{"lo":1,"lo":2}}`,
	`{"scan":{"Lo":1}}`,
	`{"join":{"build_keys":null}}`,
	`{"join":{"build_keys":[1,]}}`,
	`{"join":{"build_keys":[,1]}}`,
	`{"join":{"build_keys":[1 2]}}`,
	`{"join":{"build_keys":[1,2}}`,
	`{"join":{"build_keys":[1,[2]]}}`,
	`{"join":{"build_keys":[1.5]}}`,
	`{"join":{"build_keys":[1e2]}}`,
	`{"join":{"build_keys":["1"]}}`,
	`{"join":{"build_keys":[9223372036854775808]}}`,
	`{"join":{"build_keys":[` + strings.Repeat(",", 64) + `]}}`,
	`{"group_sum":{"keys":[1],"keys":[2]}}`,
	`{"op":"scan",}`,
	`{"op" "scan"}`,
	`{op:"scan"}`,
}

// FuzzDecodeQuery is the differential test of the query decoder against the
// reference it must be indistinguishable from: for any bytes,
// (*QueryRequest).UnmarshalJSON and DecodeStrict agree on accept/reject and
// on the error text, and an accepted request is deeply equal (nil against
// empty slices included) and survives its input being overwritten. The same
// holds for UnmarshalLeased over pools just filled with garbage columns.
func FuzzDecodeQuery(f *testing.F) {
	for _, c := range toServeCases {
		f.Add([]byte(c.body))
	}
	for _, body := range benchBodies(f) {
		f.Add(body)
	}
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"op":"group-sum","group_sum":{"keys":[],"vals":[-0,0,-9223372036854775808,9223372036854775807]}}`))
	f.Add([]byte(`{"op":"scan","table":"a b","scan":{"filter_col":-0,"lo":-9223372036854775808,"hi":9223372036854775807,"agg_col":1}}`))
	f.Add([]byte(`{"op":"join","trace_id":"\"quoted\" \\ é","join":{"algorithm":"npo","probe_keys":[1]}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		if diff := diffAgainstReference(body); diff != "" {
			t.Fatal(diff)
		}
	})
}

// diffAgainstReference decodes body both ways and describes any difference.
// It overwrites body.
func diffAgainstReference(body []byte) string {
	var want plainQuery
	wantErr := DecodeStrict(bytes.Clone(body), &want)

	var got, leased QueryRequest
	gotErr := got.UnmarshalJSON(body)
	lease := dirtyLease(QueryRequest(want))
	defer lease.Release()
	leasedErr := leased.UnmarshalLeased(body, lease)
	for i := range body {
		body[i] = 'x' // nothing decoded may alias the input
	}
	for _, c := range []struct {
		name string
		got  QueryRequest
		err  error
	}{{"UnmarshalJSON", got, gotErr}, {"UnmarshalLeased", leased, leasedErr}} {
		if fmt.Sprint(c.err) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("%s: %v\nreference: %v", c.name, c.err, wantErr)
		}
		if c.err == nil && !reflect.DeepEqual(c.got, QueryRequest(want)) {
			gj, _ := json.Marshal(c.got)
			wj, _ := json.Marshal(QueryRequest(want))
			return fmt.Sprintf("%s: decoded requests differ\ngot  %s\nwant %s", c.name, gj, wj)
		}
	}
	return ""
}

// dirtyLease fills the column pools with garbage at the lengths of want's
// inline columns, then returns a fresh lease, whose columns of those lengths
// are the garbage ones whenever the pool hands back what it was just given:
// a decoder that leaves an element unwritten decodes garbage there.
func dirtyLease(want QueryRequest) *mem.Lease {
	var cols [][]int64
	if j := want.Join; j != nil {
		cols = append(cols, j.BuildKeys, j.BuildVals, j.ProbeKeys, j.ProbeVals)
	}
	if g := want.GroupSum; g != nil {
		cols = append(cols, g.Keys, g.Vals)
	}
	dirty := mem.NewLease()
	for _, c := range cols {
		for i, col := 0, dirty.Column(len(c)); i < len(col); i++ {
			col[i] = 0x5a5a5a5a5a5a5a5a
		}
	}
	dirty.Release()
	return mem.NewLease()
}

// TestDecodeQueryMutations runs the differential check in tier-1, where the
// fuzz target only replays its seeds: seeded byte- and token-level mutations
// of the table's bodies, most of them one edit away from canonical.
func TestDecodeQueryMutations(t *testing.T) {
	tokens := []string{`null`, `1e3`, `-0`, `0.5`, `01`, `9223372036854775808`, `"OP"`, `"op"`, `"lo"`, `"keys"`,
		`\u0041`, `\"`, "\xff", `[]`, `{}`, `[1,2]`, `,`, `:`, `"`, ` `, "\n", `-`, `}`, `]`, `{`, `[`, `e`, `.`, `7`}
	rng := rand.New(rand.NewSource(15))
	fastBefore := fastDecodes.Load()
	for _, c := range toServeCases {
		for round := 0; round < 400; round++ {
			body := []byte(c.body)
			for edits := 1 + rng.Intn(3); edits > 0; edits-- {
				at := rng.Intn(len(body) + 1)
				end := at
				if rng.Intn(2) == 0 { // replace up to 3 bytes instead of inserting
					end = min(len(body), at+rng.Intn(4))
				}
				tok := ""
				if rng.Intn(4) > 0 { // else: a pure deletion
					tok = tokens[rng.Intn(len(tokens))]
				}
				body = slices.Concat(body[:at], []byte(tok), body[end:])
			}
			shown := string(body)
			if diff := diffAgainstReference(body); diff != "" {
				t.Fatalf("mutated from %q: %q\n%s", c.name, shown, diff)
			}
		}
	}
	t.Logf("fast path took %d of %d mutated bodies", fastDecodes.Load()-fastBefore, 400*len(toServeCases))
}

// TestDecodeQueryAllocs pins the decoder's point: a column is allocated once,
// at its length. A join body is its four columns plus a constant handful (the
// args struct and the op string), whatever the column sizes.
func TestDecodeQueryAllocs(t *testing.T) {
	ceilings := map[string]float64{"scan": 4, "join": 4 + 4, "group-sum": 2 + 4, "q6": 4}
	for name, body := range benchBodies(t) {
		var q QueryRequest
		allocs := testing.AllocsPerRun(10, func() {
			q = QueryRequest{}
			if err := q.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceilings[name] {
			t.Errorf("%s: %.0f allocations per decode, want at most %.0f", name, allocs, ceilings[name])
		}
	}
}

func BenchmarkDecodeQuery(b *testing.B) {
	bodies := benchBodies(b)
	for _, name := range []string{"scan", "join", "group-sum"} {
		body := bodies[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var q QueryRequest
				if err := q.UnmarshalJSON(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
