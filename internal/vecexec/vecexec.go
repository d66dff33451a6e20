// Package vecexec implements vectorized (batch-at-a-time) query execution:
// operators process chunks of a few thousand values with tight, branch-light
// loops over typed column slices and selection vectors. It also provides
// "fused" single-loop implementations standing in for JiT query compilation
// (the PDSM+JiT line of work in the same proceedings): no materialized
// intermediates at all, one pass over the data.
//
// Together with internal/volcano this package powers experiment E6: the same
// queries executed tuple-at-a-time, vectorized, and fused, on identical
// data, with both real wall-clock and modeled-cycle comparisons.
package vecexec

import "fmt"

// ChunkSize is the number of rows processed per batch, sized so a handful of
// active vectors stay L1/L2-resident.
const ChunkSize = 4096

// Sel is a selection vector: indices of qualifying rows within a chunk. A
// nil Sel means "all rows"; an empty non-nil Sel means "no rows". Filter
// primitives always return a non-nil Sel — even when seeded with a nil out
// and zero rows qualify — so a filtered-to-nothing result can never be
// mistaken for "all rows" when chained into the next primitive. Callers
// that filter repeatedly should still seed out with a reusable buffer
// (e.g. make(Sel, 0, ChunkSize)) to keep the inner loop allocation-free.
type Sel = []int32

// vecTupleCycles is the modelled per-tuple, per-primitive cost of vectorized
// execution: one tight-loop iteration, amortized dispatch.
const vecTupleCycles = 3.0

// fusedTupleCycles is the modelled per-tuple cost of a fused (compiled)
// pipeline evaluating all predicates and aggregates in one loop.
const fusedTupleCycles = 6.0

// RangeFilterF64 appends to out the indices i in [0, n) (or in sel when sel
// is non-nil) with lo <= col[i] <= hi, returning the result. The loop is
// branch-light: the comparison result indexes the append. The result is
// never nil (see Sel).
func RangeFilterF64(col []float64, lo, hi float64, sel Sel, out Sel) Sel {
	if sel == nil {
		for i, v := range col {
			if v >= lo && v <= hi {
				out = append(out, int32(i))
			}
		}
		return notNil(out)
	}
	for _, i := range sel {
		v := col[i]
		if v >= lo && v <= hi {
			out = append(out, i)
		}
	}
	return notNil(out)
}

// RangeFilterI64 is RangeFilterF64 for int64 columns.
func RangeFilterI64(col []int64, lo, hi int64, sel Sel, out Sel) Sel {
	if sel == nil {
		for i, v := range col {
			if v >= lo && v <= hi {
				out = append(out, int32(i))
			}
		}
		return notNil(out)
	}
	for _, i := range sel {
		v := col[i]
		if v >= lo && v <= hi {
			out = append(out, i)
		}
	}
	return notNil(out)
}

// notNil converts a nil Sel into an empty non-nil one without allocating.
// A filter that matched nothing must not hand "all rows" to the next
// primitive in the chain.
func notNil(out Sel) Sel {
	if out == nil {
		return Sel{}
	}
	return out
}

// SumI64 sums col over sel (or all of col when sel is nil).
func SumI64(col []int64, sel Sel) int64 {
	var s int64
	if sel == nil {
		for _, v := range col {
			s += v
		}
		return s
	}
	for _, i := range sel {
		s += col[i]
	}
	return s
}

// SumProductF64 sums a[i]*b[i] over sel (or all rows when sel is nil).
func SumProductF64(a, b []float64, sel Sel) float64 {
	var s float64
	if sel == nil {
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	for _, i := range sel {
		s += a[i] * b[i]
	}
	return s
}

// Chunks calls fn(start, end) for consecutive chunks of n rows.
func Chunks(n int, fn func(start, end int)) {
	for start := 0; start < n; start += ChunkSize {
		end := start + ChunkSize
		if end > n {
			end = n
		}
		fn(start, end)
	}
}

// GroupAgg accumulates per-group aggregates keyed by a small dictionary-code
// pair (the Q1 shape: two low-cardinality group columns). Groups are indexed
// as g1*card2+g2 in dense arrays — the vectorized engine's answer to hash
// aggregation when cardinalities are known small.
type GroupAgg struct {
	card2 int
	Sums  [][]float64 // [aggIdx][groupIdx]
	Count []int64     // [groupIdx]
}

// NewGroupAgg creates a dense aggregator for card1×card2 groups and nAggs
// sum-aggregates.
func NewGroupAgg(card1, card2, nAggs int) *GroupAgg {
	if card1 <= 0 || card2 <= 0 || nAggs < 0 {
		panic(fmt.Sprintf("vecexec: bad group agg shape %d×%d×%d", card1, card2, nAggs))
	}
	g := &GroupAgg{card2: card2, Count: make([]int64, card1*card2)}
	g.Sums = make([][]float64, nAggs)
	for i := range g.Sums {
		g.Sums[i] = make([]float64, card1*card2)
	}
	return g
}

// GroupIndex returns the dense index of group (g1, g2).
func (g *GroupAgg) GroupIndex(g1, g2 int32) int { return int(g1)*g.card2 + int(g2) }

// Add folds value v into aggregate aggIdx of group (g1, g2).
func (g *GroupAgg) Add(aggIdx int, g1, g2 int32, v float64) {
	g.Sums[aggIdx][g.GroupIndex(g1, g2)] += v
}

// Bump increments the row count of group (g1, g2).
func (g *GroupAgg) Bump(g1, g2 int32) { g.Count[g.GroupIndex(g1, g2)]++ }
