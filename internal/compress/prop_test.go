package compress

import (
	"math"
	"math/rand"
	"testing"
)

// propGen produces adversarial column shapes: long RLE runs straddling
// block boundaries, FOR blocks whose deltas sit near the top of the int64
// domain, constant stretches, and full-domain noise.
type propGen struct {
	name string
	gen  func(r *rand.Rand, n int) []int64
}

var propGens = []propGen{
	{"uniform-small", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.Int63n(1000)
		}
		return out
	}},
	{"long-runs", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, 0, n)
		for len(out) < n {
			v := r.Int63n(50) - 25
			runLen := 1 + r.Intn(3*BlockValues) // runs cross block boundaries
			for k := 0; k < runLen && len(out) < n; k++ {
				out = append(out, v)
			}
		}
		return out
	}},
	{"near-overflow-high", func(r *rand.Rand, n int) []int64 {
		// Values packed against MaxInt64 with spans wide enough that the
		// old width-derived block maximum (ref + (1<<width - 1)) wraps
		// negative.
		out := make([]int64, n)
		span := int64(1)<<61 + r.Int63n(1<<61)
		for i := range out {
			out[i] = math.MaxInt64 - r.Int63n(span)
		}
		return out
	}},
	{"near-overflow-low", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		span := int64(1)<<61 + r.Int63n(1<<61)
		for i := range out {
			out[i] = math.MinInt64 + r.Int63n(span)
		}
		return out
	}},
	{"full-domain", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(r.Uint64())
		}
		return out
	}},
	{"sorted-ramp", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		v := r.Int63n(1 << 40)
		for i := range out {
			v += r.Int63n(16)
			out[i] = v
		}
		return out
	}},
}

// propRange draws a predicate range, mixing tight ranges around observed
// values (so block-straddling part-matches happen) with extreme bounds.
func propRange(r *rand.Rand, vals []int64) (int64, int64) {
	switch r.Intn(4) {
	case 0:
		return math.MinInt64, math.MaxInt64
	case 1: // tight window around a sampled value
		v := vals[r.Intn(len(vals))]
		w := r.Int63n(1 << 10)
		lo := v - w
		if lo > v { // wrapped
			lo = math.MinInt64
		}
		hi := v + w
		if hi < v {
			hi = math.MaxInt64
		}
		return lo, hi
	case 2: // half-open high
		return vals[r.Intn(len(vals))], math.MaxInt64
	default: // window between two sampled values (maybe empty)
		a, b := vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]
		if a > b {
			a, b = b, a
		}
		return a, b
	}
}

// TestPropertyCodecMatchesRaw cross-checks Decode, Sum, and the block kernel
// (Match, BlockSum and DecodeBlock, composed by blockSelect and rangeCount)
// against the raw slice across seeded random inputs. Sizes deliberately
// straddle block boundaries.
func TestPropertyCodecMatchesRaw(t *testing.T) {
	r := rand.New(rand.NewSource(0xC0DEC))
	sizes := []int{1, 7, BlockValues - 1, BlockValues, BlockValues + 1, 3*BlockValues + 513}
	for _, g := range propGens {
		for trial := 0; trial < 8; trial++ {
			n := sizes[trial%len(sizes)]
			vals := g.gen(r, n)
			c := Encode(vals)

			got := c.Decode()
			if len(got) != len(vals) {
				t.Fatalf("%s n=%d: Decode len=%d", g.name, n, len(got))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%s n=%d: Decode[%d]=%d want %d", g.name, n, i, got[i], vals[i])
				}
			}

			var wantSum int64
			for _, v := range vals {
				wantSum += v // wrapping add; codec paths must wrap identically
			}
			if s := c.Sum(); s != wantSum {
				t.Fatalf("%s n=%d: Sum=%d want %d", g.name, n, s, wantSum)
			}

			for q := 0; q < 16; q++ {
				lo, hi := propRange(r, vals)
				var want int64
				for _, v := range vals {
					if v >= lo && v <= hi {
						want++
					}
				}
				if cnt := rangeCount(c, lo, hi); cnt != want {
					t.Fatalf("%s n=%d: rangeCount(%d,%d)=%d want %d", g.name, n, lo, hi, cnt, want)
				}
				checkBlockSelect(t, g.name, c, vals, lo, hi)
			}
		}
	}
}

// blockSelect is the block kernel over block i of c, c being both the
// filter and the aggregate column: Match classifies the block, a full match
// counts and sums from the header, and a straddling block decodes into buf
// and filters. scanned reports whether the payload was read.
func blockSelect(c *Compressed, i int, lo, hi int64, buf []int64) (cnt int, sum int64, scanned bool) {
	switch c.Match(i, lo, hi) {
	case MatchNone:
		return 0, 0, false
	case MatchAll:
		return c.BlockLen(i), c.BlockSum(i), false
	}
	for _, v := range c.DecodeBlock(i, buf) {
		if v >= lo && v <= hi {
			cnt++
			sum += v
		}
	}
	return cnt, sum, true
}

// rangeCount counts c's values in [lo, hi] block by block through the
// kernel: pruned blocks and full matches never decode.
func rangeCount(c *Compressed, lo, hi int64) int64 {
	var count int64
	var buf [BlockValues]int64
	for i := 0; i < c.NumBlocks(); i++ {
		n, _, _ := blockSelect(c, i, lo, hi, buf[:])
		count += int64(n)
	}
	return count
}

// checkBlockSelect verifies the block kernel reproduces the reference
// filtered sum and count per block, and that Match's class agrees with the
// block's values: none only when nothing qualifies, all only when
// everything does, and a payload read only for a straddling block.
func checkBlockSelect(t *testing.T, name string, c *Compressed, vals []int64, lo, hi int64) {
	t.Helper()
	var buf [BlockValues]int64
	for i := 0; i < c.NumBlocks(); i++ {
		start, bn := c.BlockStart(i), c.BlockLen(i)
		var wantCnt int
		var wantSum int64
		for _, v := range vals[start : start+bn] {
			if v >= lo && v <= hi {
				wantCnt++
				wantSum += v
			}
		}
		m := c.Match(i, lo, hi)
		if (m == MatchNone && wantCnt != 0) || (m == MatchAll && wantCnt != bn) {
			t.Fatalf("%s block %d [%d,%d]: Match = %d with %d of %d values in range", name, i, lo, hi, m, wantCnt, bn)
		}
		gotCnt, gotSum, scanned := blockSelect(c, i, lo, hi, buf[:])
		if gotCnt != wantCnt || gotSum != wantSum {
			t.Fatalf("%s block %d [%d,%d]: got cnt=%d sum=%d want cnt=%d sum=%d",
				name, i, lo, hi, gotCnt, gotSum, wantCnt, wantSum)
		}
		if scanned != (m == MatchSome) {
			t.Fatalf("%s block %d [%d,%d]: Match = %d but scanned = %v", name, i, lo, hi, m, scanned)
		}
	}
}

// TestRangeCountPruneOverflowRegression pins the zone-map fix: with the
// old width-derived pruning, a block packed against MaxInt64 computed its
// maximum as ref + (1<<width - 1), which wraps negative and pruned the
// block even though every value matched.
func TestRangeCountPruneOverflowRegression(t *testing.T) {
	vals := []int64{math.MaxInt64 - 6, math.MaxInt64 - 1, math.MaxInt64 - 4}
	c := Encode(vals)
	if m := c.Match(0, math.MaxInt64-6, math.MaxInt64); m != MatchAll {
		t.Fatalf("Match over a near-MaxInt64 block it covers = %d, want MatchAll", m)
	}
	if got := rangeCount(c, math.MaxInt64-6, math.MaxInt64); got != 3 {
		t.Fatalf("rangeCount over near-MaxInt64 block = %d, want 3", got)
	}
	if got := rangeCount(c, math.MaxInt64-5, math.MaxInt64-1); got != 2 {
		t.Fatalf("partial rangeCount over near-MaxInt64 block = %d, want 2", got)
	}
}

// TestBlockRangeAndBytes sanity-checks the block metadata accessors used
// for pruning and cost accounting.
func TestBlockRangeAndBytes(t *testing.T) {
	vals := make([]int64, BlockValues+10)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	c := Encode(vals)
	if c.NumBlocks() != 2 {
		t.Fatalf("NumBlocks=%d", c.NumBlocks())
	}
	if c.BlockLen(0) != BlockValues || c.BlockLen(1) != 10 {
		t.Fatalf("BlockLen = %d,%d", c.BlockLen(0), c.BlockLen(1))
	}
	if c.BlockStart(1) != BlockValues {
		t.Fatalf("BlockStart(1)=%d", c.BlockStart(1))
	}
	minV, maxV := c.BlockRange(0)
	if minV != 0 || maxV != 96 {
		t.Fatalf("BlockRange(0) = %d,%d", minV, maxV)
	}
	var total int64
	for i := 0; i < c.NumBlocks(); i++ {
		if c.BlockBytes(i) < BlockHeaderBytes {
			t.Fatalf("BlockBytes(%d)=%d below header", i, c.BlockBytes(i))
		}
		total += c.BlockBytes(i)
	}
	if total != c.Bytes() {
		t.Fatalf("sum of BlockBytes %d != Bytes %d", total, c.Bytes())
	}
}
