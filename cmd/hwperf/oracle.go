package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"hwstar"
	v1 "hwstar/internal/frontend/v1"
)

// scanOracle answers SELECT SUM(agg) WHERE lo <= filter <= hi without any
// product code: the table sorted by its filter column with prefix sums of
// the aggregate column, so a range is two binary searches.
type scanOracle struct {
	keys   []int64 // filter values, ascending
	prefix []int64 // prefix[i] = sum of agg over keys[:i]
}

func newScanOracle(filter, agg []int64) *scanOracle {
	type row struct{ key, agg int64 }
	rows := make([]row, len(filter))
	for i := range rows {
		rows[i] = row{filter[i], agg[i]}
	}
	slices.SortFunc(rows, func(a, b row) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	o := &scanOracle{keys: make([]int64, len(rows)), prefix: make([]int64, len(rows)+1)}
	for i, r := range rows {
		o.keys[i] = r.key
		o.prefix[i+1] = o.prefix[i] + r.agg
	}
	return o
}

// sum returns the range's aggregate and how many rows it covers.
func (o *scanOracle) sum(lo, hi int64) (sum int64, rows int) {
	from := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= lo })
	to := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] > hi })
	return o.prefix[to] - o.prefix[from], to - from
}

// joinOracle counts matches with a plain map. The checksum follows the
// definition the join package documents: per match, the build payload
// multiplied by the golden-ratio constant and shifted, plus the probe
// payload, summed order-insensitively.
func joinOracle(buildKeys, buildVals, probeKeys, probeVals []int64) *inlineWant {
	build := make(map[int64][]int64, len(buildKeys))
	for i, k := range buildKeys {
		build[k] = append(build[k], buildVals[i])
	}
	w := &inlineWant{}
	for i, k := range probeKeys {
		for _, bv := range build[k] {
			w.matches++
			w.checksum += uint64(bv) * 0x9E3779B97F4A7C15 >> 7
			w.checksum += uint64(probeVals[i])
		}
	}
	return w
}

func groupOracle(keys, vals []int64) *inlineWant {
	w := &inlineWant{groups: make(map[int64]int64)}
	for i, k := range keys {
		w.groups[k] += vals[i]
	}
	return w
}

// q6Oracle is the Q6 predicate as a plain loop, with the canonical
// parameters the product's DefaultQ6 documents (one year of ship dates,
// discount 6% +- 1%, quantity below 24).
func q6Oracle(li *hwstar.Table) (*inlineWant, error) {
	ship, err := li.Int64Column("shipdate")
	if err != nil {
		return nil, err
	}
	qty, err := li.Float64Column("quantity")
	if err != nil {
		return nil, err
	}
	price, err := li.Float64Column("extendedprice")
	if err != nil {
		return nil, err
	}
	disc, err := li.Float64Column("discount")
	if err != nil {
		return nil, err
	}
	w := &inlineWant{}
	for i := range ship {
		if ship[i] >= 365 && ship[i] <= 729 && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			w.revenue += price[i] * disc[i]
		}
	}
	return w, nil
}

// check compares one decoded wire response with the oracle's answer and
// returns a description of the mismatch, or "" when the answer is right.
// A partial answer is wrong by definition: no workload loses a replica.
func (q *query) check(resp *v1.QueryResponse) string {
	if resp.Partial {
		return fmt.Sprintf("partial=true (covered %.3f)", resp.CoveredFraction)
	}
	switch q.op {
	case "scan":
		if slices.Contains(q.never, resp.Result.Sum) {
			return fmt.Sprintf("scan [%d,%d]: sum %d is the unacknowledged version's", q.lo, q.hi, resp.Result.Sum)
		}
		if !slices.Contains(q.want, resp.Result.Sum) {
			return fmt.Sprintf("scan [%d,%d]: sum %d, want one of %v", q.lo, q.hi, resp.Result.Sum, q.want)
		}
	case "join":
		if want := fmt.Sprintf("%016x", q.inline.checksum); resp.Result.Matches != q.inline.matches || resp.Result.Checksum != want {
			return fmt.Sprintf("join: matches %d checksum %s, want %d %s",
				resp.Result.Matches, resp.Result.Checksum, q.inline.matches, want)
		}
	case "group-sum":
		if len(resp.Result.Groups) != len(q.inline.groups) {
			return fmt.Sprintf("group-sum: %d groups, want %d", len(resp.Result.Groups), len(q.inline.groups))
		}
		for k, want := range q.inline.groups {
			if got, ok := resp.Result.Groups[strconv.FormatInt(k, 10)]; !ok || got != want {
				return fmt.Sprintf("group-sum: group %d = %d (present %v), want %d", k, got, ok, want)
			}
		}
	case "q6":
		if want := q.inline.revenue; math.Abs(resp.Result.Revenue-want) > 1e-9*math.Abs(want) {
			return fmt.Sprintf("q6: revenue %v, want %v", resp.Result.Revenue, want)
		}
	}
	return ""
}

// checkSum verifies a scan sum computed outside the wire path against
// version 0, the one the direct-call probes scan.
func (q *query) checkSum(sum int64) string {
	if sum != q.want[0] {
		return fmt.Sprintf("scan [%d,%d]: sum %d, want %d", q.lo, q.hi, sum, q.want[0])
	}
	return ""
}
