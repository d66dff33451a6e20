package vecexec

import (
	"math/rand"
	"testing"

	"hwstar/internal/compress"
)

// TestFilterNeverNil pins the Sel contract: a filter seeded with a nil out
// that matches zero rows must return an empty non-nil Sel, not nil — nil
// means "all rows" to the next primitive.
func TestFilterNeverNil(t *testing.T) {
	f64 := []float64{1, 2, 3}
	i64 := []int64{1, 2, 3}
	if got := RangeFilterF64(f64, 100, 200, nil, nil); got == nil {
		t.Fatal("RangeFilterF64 returned nil for zero matches")
	}
	if got := RangeFilterI64(i64, 100, 200, nil, nil); got == nil {
		t.Fatal("RangeFilterI64 returned nil for zero matches")
	}
	// With a non-nil incoming sel and zero matches the result must also be
	// non-nil.
	if got := RangeFilterI64(i64, 100, 200, Sel{0, 1}, nil); got == nil {
		t.Fatal("RangeFilterI64 returned nil for zero matches over a sel")
	}
}

// TestChainedFilterZeroFirst chains two filters where the first selects
// zero rows. Before the non-nil guarantee, the first filter returned nil
// and the second treated it as "all rows", resurrecting every row the
// first filter had excluded.
func TestChainedFilterZeroFirst(t *testing.T) {
	price := []float64{10, 20, 30, 40}
	qty := []int64{1, 2, 3, 4}

	sel := RangeFilterF64(price, 1000, 2000, nil, nil) // nothing qualifies
	sel = RangeFilterI64(qty, 0, 100, sel, nil)        // everything qualifies — of nothing
	if len(sel) != 0 {
		t.Fatalf("chained filter after empty first stage selected %d rows, want 0", len(sel))
	}
	if sel == nil {
		t.Fatal("chained empty selection is nil, which the next operator reads as all rows")
	}
}

// TestSumI64 checks the int64 aggregate with and without a selection.
func TestSumI64(t *testing.T) {
	col := []int64{5, -2, 7, 100}
	if s := SumI64(col, nil); s != 110 {
		t.Fatalf("SumI64 all = %d", s)
	}
	if s := SumI64(col, Sel{1, 3}); s != 98 {
		t.Fatalf("SumI64 sel = %d", s)
	}
	if s := SumI64(col, Sel{}); s != 0 {
		t.Fatalf("SumI64 empty sel = %d", s)
	}
}

// TestCompressedEntryPointsMatchDecoded runs the compressed-block filter +
// sum against the decoded column for random data, block by block.
func TestCompressedEntryPointsMatchDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	vals := make([]int64, 3*compress.BlockValues+200)
	for i := range vals {
		vals[i] = r.Int63n(1 << 20)
	}
	col := compress.Encode(vals)
	var buf [compress.BlockValues]int64
	for _, rng := range [][2]int64{{0, 1 << 19}, {1 << 10, 1 << 12}, {-5, -1}, {0, 1 << 20}} {
		lo, hi := rng[0], rng[1]
		var want, got int64
		for _, v := range vals {
			if v >= lo && v <= hi {
				want += v
			}
		}
		sel := make(Sel, 0, compress.BlockValues)
		for blk := 0; blk < col.NumBlocks(); blk++ {
			s, all, _ := RangeFilterCompressed(col, blk, lo, hi, buf[:], sel[:0])
			if all {
				s = nil
			} else if len(s) == 0 {
				continue
			}
			sum, _ := SumCompressed(col, blk, s, buf[:])
			got += sum
		}
		if got != want {
			t.Fatalf("[%d,%d]: compressed sum %d != reference %d", lo, hi, got, want)
		}
	}
}
