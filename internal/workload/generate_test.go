package workload

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestUniformIntsRangeAndDeterminism(t *testing.T) {
	a := UniformInts(7, 1000, 50)
	b := UniformInts(7, 1000, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce")
	}
	for _, v := range a {
		if v < 0 || v >= 50 {
			t.Fatalf("out of range: %d", v)
		}
	}
	c := UniformInts(8, 1000, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestUniformIntsPanicsOnBadMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic on max<=0")
		}
	}()
	UniformInts(1, 10, 0)
}

func TestSequentialAndShuffled(t *testing.T) {
	s := SequentialInts(5)
	if !reflect.DeepEqual(s, []int64{0, 1, 2, 3, 4}) {
		t.Fatalf("sequential = %v", s)
	}
	sh := ShuffledInts(3, 100)
	if len(sh) != 100 {
		t.Fatalf("len = %d", len(sh))
	}
	sorted := append([]int64(nil), sh...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if !reflect.DeepEqual(sorted, SequentialInts(100)) {
		t.Fatal("shuffle must be a permutation")
	}
	if reflect.DeepEqual(sh, SequentialInts(100)) {
		t.Fatal("shuffle of 100 elements should not be identity")
	}
}

func TestZipfSkewConcentration(t *testing.T) {
	const n, max = 100000, 10000
	skewed := ZipfInts(1, n, max, 1.5)
	uniform := UniformInts(1, n, max)
	top := func(keys []int64) float64 {
		counts := map[int64]int{}
		for _, k := range keys {
			counts[k]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		return float64(best) / float64(len(keys))
	}
	if ts, tu := top(skewed), top(uniform); ts < 10*tu {
		t.Fatalf("zipf top key share %.4f should dwarf uniform %.4f", ts, tu)
	}
	for _, v := range skewed {
		if v < 0 || v >= max {
			t.Fatalf("zipf key out of range: %d", v)
		}
	}
}

func TestZipfClampsS(t *testing.T) {
	// s <= 1 must not panic (clamped internally).
	keys := ZipfInts(1, 100, 1000, 0.5)
	if len(keys) != 100 {
		t.Fatal("clamped zipf should still generate")
	}
}

func TestGenerateJoinShapes(t *testing.T) {
	in := GenerateJoin(JoinConfig{Seed: 1, BuildRows: 1000, ProbeRows: 5000})
	if len(in.BuildKeys) != 1000 || len(in.ProbeKeys) != 5000 {
		t.Fatalf("sizes: %d/%d", len(in.BuildKeys), len(in.ProbeKeys))
	}
	// Build keys are a permutation (unique primary keys).
	seen := map[int64]bool{}
	for _, k := range in.BuildKeys {
		if seen[k] {
			t.Fatalf("duplicate build key %d", k)
		}
		seen[k] = true
		if k < 0 || k >= 1000 {
			t.Fatalf("build key out of range: %d", k)
		}
	}
	// Without Miss, every probe key matches.
	for _, k := range in.ProbeKeys {
		if k < 0 || k >= 1000 {
			t.Fatalf("probe key out of domain: %d", k)
		}
	}
}

func TestGenerateJoinMissFraction(t *testing.T) {
	in := GenerateJoin(JoinConfig{Seed: 2, BuildRows: 1000, ProbeRows: 20000, Miss: 0.3})
	misses := 0
	for _, k := range in.ProbeKeys {
		if k >= 1000 {
			misses++
		}
	}
	frac := float64(misses) / float64(len(in.ProbeKeys))
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("miss fraction = %f, want ~0.3", frac)
	}
}

func TestGenerateJoinPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic on BuildRows=0")
		}
	}()
	GenerateJoin(JoinConfig{})
}

func TestLineItem(t *testing.T) {
	tbl := LineItem(1, 500)
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	qty, err := tbl.Float64Column("quantity")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qty {
		if q < 1 || q > 50 {
			t.Fatalf("quantity out of range: %f", q)
		}
	}
	disc, _ := tbl.Float64Column("discount")
	for _, d := range disc {
		if d < 0 || d > 0.10000001 {
			t.Fatalf("discount out of range: %f", d)
		}
	}
	ship, _ := tbl.Int64Column("shipdate")
	for _, s := range ship {
		if s < 0 || s >= 2557 {
			t.Fatalf("shipdate out of range: %d", s)
		}
	}
	rf, err := tbl.StringColumn("returnflag")
	if err != nil {
		t.Fatal(err)
	}
	if rf.CardinalityOfDict() > 3 {
		t.Fatalf("returnflag cardinality = %d", rf.CardinalityOfDict())
	}
}

func TestOrders(t *testing.T) {
	tbl := Orders(1, 200)
	keys, err := tbl.Int64Column("orderkey")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("orderkey[%d] = %d", i, k)
		}
	}
	prio, err := tbl.StringColumn("orderpriority")
	if err != nil {
		t.Fatal(err)
	}
	if prio.CardinalityOfDict() > 5 {
		t.Fatalf("priority cardinality = %d", prio.CardinalityOfDict())
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{OpRead: "read", OpUpdate: "update", OpInsert: "insert", OpScan: "scan"} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", int(k), k.String(), want)
		}
	}
	if OpKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestGenerateOpsMixFractions(t *testing.T) {
	ops := GenerateOps(1, 100000, 10000, Mix{UpdateFrac: 0.3, InsertFrac: 0.1, ScanFrac: 0.2})
	counts := map[OpKind]int{}
	for _, op := range ops {
		counts[op.Kind]++
	}
	frac := func(k OpKind) float64 { return float64(counts[k]) / float64(len(ops)) }
	if f := frac(OpUpdate); f < 0.28 || f > 0.32 {
		t.Fatalf("update frac = %f", f)
	}
	if f := frac(OpInsert); f < 0.08 || f > 0.12 {
		t.Fatalf("insert frac = %f", f)
	}
	if f := frac(OpScan); f < 0.18 || f > 0.22 {
		t.Fatalf("scan frac = %f", f)
	}
	if f := frac(OpRead); f < 0.38 || f > 0.42 {
		t.Fatalf("read frac = %f", f)
	}
}

func TestGenerateOpsInsertKeysMonotone(t *testing.T) {
	ops := GenerateOps(2, 5000, 100, Mix{InsertFrac: 0.5})
	last := int64(99)
	for _, op := range ops {
		if op.Kind == OpInsert {
			if op.Key != last+1 {
				t.Fatalf("insert key %d, want %d", op.Key, last+1)
			}
			last = op.Key
		}
	}
}

func TestGenerateOpsScanLens(t *testing.T) {
	ops := GenerateOps(3, 2000, 100, MixScanHeavy())
	for _, op := range ops {
		if op.Kind == OpScan && (op.ScanLen < 1 || op.ScanLen > 100) {
			t.Fatalf("scan len = %d", op.ScanLen)
		}
	}
}

func TestPredefinedMixes(t *testing.T) {
	if m := MixReadMostly(); m.UpdateFrac != 0.05 {
		t.Fatal("read-mostly mix wrong")
	}
	if m := MixUpdateHeavy(); m.UpdateFrac != 0.5 {
		t.Fatal("update-heavy mix wrong")
	}
	if m := MixScanHeavy(); m.ScanFrac != 0.95 {
		t.Fatal("scan-heavy mix wrong")
	}
}

func TestGenerateOpsPanicsOnBadKeyspace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic on keyspace<=0")
		}
	}()
	GenerateOps(1, 10, 0, Mix{})
}

// Property: generators are pure functions of their seed.
func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := int(n) + 1
		if !reflect.DeepEqual(ZipfInts(seed, m, 100, 1.3), ZipfInts(seed, m, 100, 1.3)) {
			return false
		}
		a := GenerateJoin(JoinConfig{Seed: seed, BuildRows: m, ProbeRows: m, ZipfS: 1.2, Miss: 0.1})
		b := GenerateJoin(JoinConfig{Seed: seed, BuildRows: m, ProbeRows: m, ZipfS: 1.2, Miss: 0.1})
		if !reflect.DeepEqual(a, b) {
			return false
		}
		return reflect.DeepEqual(GenerateOps(seed, m, 50, MixReadMostly()), GenerateOps(seed, m, 50, MixReadMostly()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
