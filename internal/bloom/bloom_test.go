package bloom

import (
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
	"hwstar/internal/workload"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(10000, 0)
	keys := workload.UniformInts(1, 10000, 1<<40)
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
	if f.n != 10000 {
		t.Fatalf("n = %d", f.n)
	}
}

func TestFalsePositiveRateNearExpected(t *testing.T) {
	const n = 50000
	f := New(n, 10)
	for _, k := range workload.SequentialInts(n) {
		f.Add(k)
	}
	// Probe keys far outside the inserted range.
	probes := workload.UniformInts(2, 200000, 1<<40)
	fp := 0
	for _, k := range probes {
		if k < n {
			continue
		}
		if f.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(len(probes))
	// Blocked filters pay a small constant over the ideal ~1%; accept <4%.
	if rate > 0.04 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
	if est := f.ExpectedFPR(); est <= 0 || est > 0.05 {
		t.Fatalf("expected FPR estimate %.4f out of range", est)
	}
}

func TestEmptyFilter(t *testing.T) {
	f := New(0, 0)
	if f.Contains(42) {
		t.Fatal("empty filter should contain nothing")
	}
	if f.ExpectedFPR() != 0 {
		t.Fatal("empty filter FPR should be 0")
	}
	if f.Bytes() <= 0 {
		t.Fatal("filter should have a footprint")
	}
	if f.String() == "" {
		t.Fatal("String should render")
	}
}

func TestSizeScalesWithBitsPerKey(t *testing.T) {
	small := New(10000, 8)
	big := New(10000, 16)
	if big.Bytes() <= small.Bytes() {
		t.Fatalf("16 bits/key (%d B) should exceed 8 bits/key (%d B)", big.Bytes(), small.Bytes())
	}
}

func TestProbeWorkShape(t *testing.T) {
	m := hw.Server2S()
	f := New(1<<20, 10) // ~1.25 MiB: LLC-resident
	w := f.ProbeWork("bloom", 1000)
	if w.RandomReads != 1000 || w.RandomWS != f.Bytes() {
		t.Fatalf("probe work = %+v", w)
	}
	// Bloom probes into an LLC-resident filter must be far cheaper than
	// hash-table probes into a DRAM-resident table.
	htWork := hw.Work{Tuples: 1000, ComputePerTuple: 6, RandomReads: 1000, RandomWS: 1 << 30}
	if m.Cycles(w, hw.DefaultContext()) >= m.Cycles(htWork, hw.DefaultContext()) {
		t.Fatal("bloom probe should be cheaper than big-table probe")
	}
}

// Property: no false negatives for any insert set and probe order.
func TestNoFalseNegativeProperty(t *testing.T) {
	f := func(keys []int64) bool {
		fl := New(len(keys), 0)
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
