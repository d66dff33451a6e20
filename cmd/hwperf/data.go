package main

import (
	"encoding/json"
	"math/rand"

	"hwstar"
	v1 "hwstar/internal/frontend/v1"
)

// filterDomain is the value range of every filter column; pool scans draw
// lo in [0, filterDomain-width].
const filterDomain = 100000

// genTable generates a two-column relation: column 0 the filter column in
// the given shape, column 1 the aggregate column, uniform in [0, 1000).
// "clustered" is the append-ordered shape of experiment E25 (a ramp over
// the domain plus +-128 noise, so a block's zone map is a narrow band);
// "uniform" scatters the domain over every block, so no zone map prunes.
func genTable(rng *rand.Rand, shape string, rows int) [][]int64 {
	filter := make([]int64, rows)
	agg := make([]int64, rows)
	for i := range filter {
		if shape == "clustered" {
			filter[i] = int64(i)*filterDomain/int64(rows) + rng.Int63n(256) - 128
		} else {
			filter[i] = rng.Int63n(filterDomain)
		}
	}
	for i := range agg {
		agg[i] = rng.Int63n(1000)
	}
	return [][]int64{filter, agg}
}

// query is one pool entry: the request body as the wire carries it and
// what the oracle says a correct answer is.
type query struct {
	op   string
	body []byte

	// scan: the sum must equal one of want (one entry per table version
	// that may be live; durable_churn alternates two). lo/hi are kept for
	// the direct-call probes and for printing a mismatch.
	lo, hi int64
	want   []int64
	never  []int64 // durable_churn: the unacknowledged version's sum

	// inline ops share their expectation with every entry reusing the body.
	inline *inlineWant
}

// inlineWant is the oracle's answer for one inline body (or for q6).
type inlineWant struct {
	matches  int64
	checksum uint64
	groups   map[int64]int64
	revenue  float64
}

// scanBody serializes one op=scan request.
func scanBody(table string, lo, hi int64) []byte {
	b, err := json.Marshal(v1.QueryRequest{
		Op:    "scan",
		Table: table,
		Scan:  &v1.ScanArgs{FilterCol: 0, Lo: lo, Hi: hi, AggCol: 1},
	})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// unackedShift is added to every aggregate of version 0 to make the
// version durable_churn registers but never checkpoints: its range sums
// are version 0's plus unackedShift per covered row, so none coincides.
const unackedShift = 1000

// genScanPool draws n range scans of the given width and answers each from
// every oracle version.
func genScanPool(rng *rand.Rand, spec workloadSpec, n int, versions ...*scanOracle) []query {
	pool := make([]query, n)
	for i := range pool {
		lo := rng.Int63n(filterDomain - spec.ScanWidth)
		hi := lo + spec.ScanWidth
		q := query{op: "scan", body: scanBody(spec.Table, lo, hi), lo: lo, hi: hi}
		for v, o := range versions {
			sum, rows := o.sum(lo, hi)
			q.want = append(q.want, sum)
			if spec.Durable && v == 0 {
				q.never = []int64{sum + unackedShift*int64(rows)}
			}
		}
		pool[i] = q
	}
	return pool
}

// genInlinePool builds the inline_mixed pool: spec.InlineBodies distinct
// join bodies and as many group-sum bodies (a pool of 4096 distinct
// ~400 KB bodies would be 1.6 GB), cycled with q6 so each op is a third
// of the requests.
func genInlinePool(rng *rand.Rand, spec workloadSpec, n int, lineitem *hwstar.Table) ([]query, error) {
	joins := make([]query, spec.InlineBodies)
	groups := make([]query, spec.InlineBodies)
	for i := range joins {
		jd := hwstar.GenJoin(rng.Int63(), spec.JoinBuild, spec.JoinProbe, 0)
		// Half the probes miss: shift every second probe key out of the
		// build domain, so match counts are not simply the probe count.
		for k := 1; k < len(jd.ProbeKeys); k += 2 {
			jd.ProbeKeys[k] += int64(spec.JoinBuild)
		}
		body, err := json.Marshal(v1.QueryRequest{Op: "join", Join: &v1.JoinArgs{
			BuildKeys: jd.BuildKeys, BuildVals: jd.BuildVals,
			ProbeKeys: jd.ProbeKeys, ProbeVals: jd.ProbeVals,
		}})
		if err != nil {
			return nil, err
		}
		joins[i] = query{op: "join", body: body, inline: joinOracle(jd.BuildKeys, jd.BuildVals, jd.ProbeKeys, jd.ProbeVals)}

		keys := make([]int64, spec.GroupRows)
		vals := make([]int64, spec.GroupRows)
		for k := range keys {
			keys[k] = rng.Int63n(int64(spec.GroupKeys))
			vals[k] = rng.Int63n(1000)
		}
		body, err = json.Marshal(v1.QueryRequest{Op: "group-sum", GroupSum: &v1.GroupSumArgs{Keys: keys, Vals: vals}})
		if err != nil {
			return nil, err
		}
		groups[i] = query{op: "group-sum", body: body, inline: groupOracle(keys, vals)}
	}
	q6Body, err := json.Marshal(v1.QueryRequest{Op: "q6", Table: "lineitem"})
	if err != nil {
		return nil, err
	}
	q6Want, err := q6Oracle(lineitem)
	if err != nil {
		return nil, err
	}
	q6 := query{op: "q6", body: q6Body, inline: q6Want}

	pool := make([]query, n)
	for i := range pool {
		switch spec.Ops[i%len(spec.Ops)] {
		case "join":
			pool[i] = joins[(i/len(spec.Ops))%len(joins)]
		case "group-sum":
			pool[i] = groups[(i/len(spec.Ops))%len(groups)]
		default:
			pool[i] = q6
		}
	}
	return pool, nil
}
