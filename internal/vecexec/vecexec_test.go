package vecexec

import (
	"math"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
)

func TestRangeFilterF64NoSel(t *testing.T) {
	col := []float64{1, 5, 3, 7, 5}
	sel := RangeFilterF64(col, 3, 5, nil, nil)
	want := []int32{1, 2, 4}
	if len(sel) != len(want) {
		t.Fatalf("sel = %v", sel)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel = %v, want %v", sel, want)
		}
	}
}

func TestRangeFilterF64WithSel(t *testing.T) {
	col := []float64{1, 5, 3, 7, 5}
	in := Sel{0, 1, 3}
	sel := RangeFilterF64(col, 4, 8, in, nil)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestRangeFilterI64(t *testing.T) {
	col := []int64{10, 20, 30, 40}
	sel := RangeFilterI64(col, 15, 35, nil, nil)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("sel = %v", sel)
	}
	sel = RangeFilterI64(col, 15, 35, Sel{0, 3}, nil)
	if len(sel) != 0 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestSums(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	if got := SumProductF64(a, b, nil); got != 10+40+90+160 {
		t.Fatalf("SumProductF64 = %f", got)
	}
	if got := SumProductF64(a, b, Sel{1}); got != 40 {
		t.Fatalf("SumProductF64 sel = %f", got)
	}
}

func TestChunksCoverage(t *testing.T) {
	var total int
	var calls int
	Chunks(ChunkSize*2+100, func(start, end int) {
		total += end - start
		calls++
		if end-start > ChunkSize {
			t.Fatalf("chunk too large: %d", end-start)
		}
	})
	if total != ChunkSize*2+100 || calls != 3 {
		t.Fatalf("coverage %d in %d calls", total, calls)
	}
	Chunks(0, func(start, end int) { t.Fatal("empty input should not call back") })
}

func TestGroupAgg(t *testing.T) {
	g := NewGroupAgg(2, 3, 2)
	g.Add(0, 1, 2, 5)
	g.Add(0, 1, 2, 7)
	g.Add(1, 0, 0, 1)
	g.Bump(1, 2)
	g.Bump(1, 2)
	gi := g.GroupIndex(1, 2)
	if g.Sums[0][gi] != 12 || g.Count[gi] != 2 {
		t.Fatalf("group (1,2): sum=%f count=%d", g.Sums[0][gi], g.Count[gi])
	}
	if g.Sums[1][g.GroupIndex(0, 0)] != 1 {
		t.Fatal("agg 1 wrong")
	}
}

func TestGroupAggPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape should panic")
		}
	}()
	NewGroupAgg(0, 1, 1)
}

func TestCostChargersOrdering(t *testing.T) {
	m := hw.Server2S()
	rows := int64(1 << 20)
	cost := func(f func(*hw.Account, int64)) float64 {
		acct := hw.NewAccount(m, hw.DefaultContext())
		f(acct, rows)
		return acct.TotalCycles()
	}
	v6, f6 := cost(ChargeQ6Vectorized), cost(ChargeQ6Fused)
	if f6 >= v6 {
		t.Fatalf("fused Q6 %.0f should beat vectorized %.0f", f6, v6)
	}
	v1, f1 := cost(ChargeQ1Vectorized), cost(ChargeQ1Fused)
	if f1 >= v1 {
		t.Fatalf("fused Q1 %.0f should beat vectorized %.0f", f1, v1)
	}
}

// Property: filters return exactly the indices satisfying the predicate, in
// ascending order, regardless of input selection.
func TestFilterCorrectnessProperty(t *testing.T) {
	f := func(vals []float64, loRaw, hiRaw float64) bool {
		lo, hi := loRaw, hiRaw
		if lo > hi {
			lo, hi = hi, lo
		}
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		sel := RangeFilterF64(vals, lo, hi, nil, nil)
		// Verify exactness.
		j := 0
		for i, v := range vals {
			in := v >= lo && v <= hi
			matched := j < len(sel) && sel[j] == int32(i)
			if in != matched {
				return false
			}
			if matched {
				j++
			}
		}
		return j == len(sel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: filtering with a selection vector equals filtering the composed
// predicate.
func TestFilterCompositionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, r := range raw {
			a[i] = float64(r % 16)
			b[i] = float64(r % 7)
		}
		// Seed out-buffers non-nil: an empty selection must stay
		// distinguishable from the nil "all rows" selection.
		s1 := RangeFilterF64(a, 3, 10, nil, make(Sel, 0, len(a)))
		s2 := RangeFilterF64(b, 1, 4, s1, make(Sel, 0, len(b)))
		// Reference: single pass with conjunction.
		var want []int32
		for i := range a {
			if a[i] >= 3 && a[i] <= 10 && b[i] >= 1 && b[i] <= 4 {
				want = append(want, int32(i))
			}
		}
		if len(want) != len(s2) {
			return false
		}
		for i := range want {
			if want[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
