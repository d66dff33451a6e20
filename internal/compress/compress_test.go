package compress

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
	"hwstar/internal/workload"
)

func TestRoundTripKnownCases(t *testing.T) {
	cases := [][]int64{
		{},
		{42},
		{1, 2, 3, 4, 5},
		{7, 7, 7, 7, 7, 7},
		{-100, 100, 0, -50, 50},
		{math.MaxInt64, math.MinInt64, 0},
	}
	for _, in := range cases {
		c := Encode(in)
		got := c.Decode()
		if len(in) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty round trip = %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip %v = %v", in, got)
		}
		if c.Len() != len(in) {
			t.Fatalf("Len = %d", c.Len())
		}
	}
}

func TestRoundTripLarge(t *testing.T) {
	for name, data := range map[string][]int64{
		"uniform-small-domain": workload.UniformInts(1, 50000, 256),
		"uniform-wide":         workload.UniformInts(2, 50000, 1<<40),
		"sequential":           workload.SequentialInts(50000),
		"zipf":                 workload.ZipfInts(3, 50000, 1<<20, 1.5),
	} {
		c := Encode(data)
		if !reflect.DeepEqual(c.Decode(), data) {
			t.Fatalf("%s: round trip failed", name)
		}
	}
}

func TestCompressionRatios(t *testing.T) {
	// 8-bit domain packs ~8x (frame-of-reference to one byte per value).
	narrow := Encode(workload.UniformInts(4, 100000, 256))
	if r := narrow.Ratio(); r < 6 {
		t.Fatalf("8-bit domain ratio = %.2f, want > 6", r)
	}
	// Constant column collapses almost entirely (RLE or width-0 FOR).
	constant := Encode(make([]int64, 100000))
	if r := constant.Ratio(); r < 100 {
		t.Fatalf("constant column ratio = %.2f, want > 100", r)
	}
	// Full-width random data cannot compress.
	wide := Encode(workload.UniformInts(5, 100000, math.MaxInt64))
	if r := wide.Ratio(); r > 1.1 {
		t.Fatalf("incompressible ratio = %.2f, want ~1", r)
	}
	if wide.Bytes() <= 0 || wide.RawBytes() != 800000 {
		t.Fatal("byte accounting wrong")
	}
}

func TestRLEChosenForRunHeavyData(t *testing.T) {
	// Long runs: RLE should beat FOR (values span a wide range, killing
	// bit-packing, but runs are long).
	data := make([]int64, 10000)
	for i := range data {
		data[i] = int64(i/1000) * 1e12
	}
	c := Encode(data)
	if r := c.Ratio(); r < 50 {
		t.Fatalf("run-heavy ratio = %.2f, want > 50", r)
	}
	if !reflect.DeepEqual(c.Decode(), data) {
		t.Fatal("RLE round trip failed")
	}
}

func TestSumMatchesReference(t *testing.T) {
	for _, data := range [][]int64{
		workload.UniformInts(6, 30000, 1000),
		workload.ZipfInts(7, 30000, 100, 1.5), // triggers RLE fast path in places
		{-5, -5, -5, 10},
	} {
		var want int64
		for _, v := range data {
			want += v
		}
		if got := Encode(data).Sum(); got != want {
			t.Fatalf("Sum = %d, want %d", got, want)
		}
	}
}

func TestRangeCountMatchesReference(t *testing.T) {
	data := workload.UniformInts(8, 30000, 10000)
	c := Encode(data)
	for _, r := range [][2]int64{{0, 9999}, {100, 200}, {5000, 5000}, {-10, -1}, {20000, 30000}} {
		var want int64
		for _, v := range data {
			if v >= r[0] && v <= r[1] {
				want++
			}
		}
		if got := rangeCount(c, r[0], r[1]); got != want {
			t.Fatalf("rangeCount[%d,%d] = %d, want %d", r[0], r[1], got, want)
		}
	}
}

func TestRangeCountBlockPruning(t *testing.T) {
	// Sorted data gives disjoint per-block ranges; a narrow predicate must
	// still count exactly (pruning is an optimization, not a semantics
	// change).
	data := workload.SequentialInts(100000)
	c := Encode(data)
	if got := rangeCount(c, 50_000, 50_099); got != 100 {
		t.Fatalf("pruned range count = %d, want 100", got)
	}
	if got := rangeCount(c, -5, -1); got != 0 {
		t.Fatalf("out-of-domain count = %d", got)
	}
}

func TestScanWorkTradeoff(t *testing.T) {
	m := hw.Server2S()
	data := workload.UniformInts(9, 1<<20, 256) // packs ~8x
	c := Encode(data)

	// One idle core: raw wins (no decode cost, bandwidth is free).
	solo := hw.DefaultContext()
	rawSolo := m.Cycles(ScanWorkRaw(int64(len(data))), solo)
	compSolo := m.Cycles(c.ScanWork(), solo)
	if compSolo <= rawSolo {
		t.Fatalf("idle machine: compressed %f should lose to raw %f", compSolo, rawSolo)
	}

	// Full socket: bandwidth per core collapses and compression wins.
	busy := hw.ExecContext{ActiveCoresOnSocket: m.CoresPerSocket, InterferenceFactor: 1}
	rawBusy := m.Cycles(ScanWorkRaw(int64(len(data))), busy)
	compBusy := m.Cycles(c.ScanWork(), busy)
	if compBusy >= rawBusy {
		t.Fatalf("saturated socket: compressed %f should beat raw %f", compBusy, rawBusy)
	}
}

// Property: encode/decode is the identity for arbitrary data, and the
// compressed aggregates agree with the plain ones.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []int32, narrow bool) bool {
		data := make([]int64, len(raw))
		for i, v := range raw {
			if narrow {
				data[i] = int64(v % 16)
			} else {
				data[i] = int64(v) * 1000003
			}
		}
		c := Encode(data)
		dec := c.Decode()
		if len(dec) != len(data) {
			return false
		}
		var want int64
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
			want += data[i]
		}
		if c.Sum() != want {
			return false
		}
		var wantCount int64
		for _, v := range data {
			if v >= -1000 && v <= 1000 {
				wantCount++
			}
		}
		return rangeCount(c, -1000, 1000) == wantCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
