package index

import (
	"math"
	"testing"
	"testing/quick"

	"hwstar/internal/cache"
	"hwstar/internal/hw"
	"hwstar/internal/workload"
)

// indexUnderTest abstracts the two structures for shared tests.
type indexUnderTest interface {
	Insert(key, val int64)
	Get(key int64) (int64, bool)
	Len() int
}

func implementations() map[string]func() indexUnderTest {
	return map[string]func() indexUnderTest{
		"btree": func() indexUnderTest { return NewBTree(0) },
		"bst":   func() indexUnderTest { return NewBST(1 << 40) },
	}
}

func TestInsertGet(t *testing.T) {
	for name, mk := range implementations() {
		idx := mk()
		keys := workload.ShuffledInts(1, 5000)
		for _, k := range keys {
			idx.Insert(k, k*3)
		}
		if idx.Len() != 5000 {
			t.Fatalf("%s: len = %d", name, idx.Len())
		}
		for _, k := range keys {
			v, ok := idx.Get(k)
			if !ok || v != k*3 {
				t.Fatalf("%s: Get(%d) = %d, %v", name, k, v, ok)
			}
		}
		if _, ok := idx.Get(99999); ok {
			t.Fatalf("%s: found absent key", name)
		}
	}
}

func TestInsertReplaces(t *testing.T) {
	for name, mk := range implementations() {
		idx := mk()
		idx.Insert(5, 50)
		idx.Insert(5, 51)
		if idx.Len() != 1 {
			t.Fatalf("%s: duplicate insert grew index to %d", name, idx.Len())
		}
		if v, _ := idx.Get(5); v != 51 {
			t.Fatalf("%s: replace failed, got %d", name, v)
		}
	}
}

func TestBTreeHeightLogarithmic(t *testing.T) {
	bt := NewBTree(0)
	for _, k := range workload.ShuffledInts(3, 100000) {
		bt.Insert(k, k)
	}
	// order-32 tree of 100k keys: height ~ log_16(100000/16)+1 ≈ 4.
	if h := bt.Height(); h < 3 || h > 6 {
		t.Fatalf("height = %d, expected 3..6", h)
	}
	if bt.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestTracedGetMatchesGet(t *testing.T) {
	m := hw.Laptop()
	keys := workload.ShuffledInts(5, 20000)
	bt, bst := NewBTree(0), NewBST(1<<40)
	for _, k := range keys {
		bt.Insert(k, k*2)
		bst.Insert(k, k*2)
	}
	if bst.Bytes() != int64(len(keys))*bstNodeBytes {
		t.Fatalf("BST Bytes = %d", bst.Bytes())
	}
	hb, hs := cache.FromMachine(m), cache.FromMachine(m)
	for _, k := range keys[:500] {
		v1, ok1, c1 := bt.TracedGet(hb, k)
		v2, ok2, c2 := bst.TracedGet(hs, k)
		if !ok1 || !ok2 || v1 != k*2 || v2 != k*2 {
			t.Fatalf("traced lookups wrong for %d", k)
		}
		if c1 <= 0 || c2 <= 0 {
			t.Fatal("traced cycles should be positive")
		}
	}
	_, ok, _ := bt.TracedGet(hb, -5)
	if ok {
		t.Fatal("traced get of absent key should miss")
	}
}

func TestBTreeBeatsBSTUnderTrace(t *testing.T) {
	// The E10 effect: on an out-of-cache index, random probes cost fewer
	// simulated cycles on the B+-tree than on the BST.
	m := hw.Laptop()
	const n = 1 << 17 // BST: 4 MiB of nodes, beyond L2, near L3 capacity
	keys := workload.ShuffledInts(6, n)
	bt, bst := NewBTree(0), NewBST(1<<40)
	for _, k := range keys {
		bt.Insert(k, k)
		bst.Insert(k, k)
	}
	hb, hs := cache.FromMachine(m), cache.FromMachine(m)
	probes := workload.UniformInts(7, 3000, n)
	var cb, cs float64
	for _, k := range probes {
		_, _, c1 := bt.TracedGet(hb, k)
		cb += c1
		_, _, c2 := bst.TracedGet(hs, k)
		cs += c2
	}
	if cb >= cs {
		t.Fatalf("B+-tree %.0f cycles should beat BST %.0f on out-of-cache probes", cb, cs)
	}
}

// Property: both structures agree with a reference map and with each other
// under arbitrary insert sequences (including duplicates).
func TestIndexEquivalenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		bt, bst := NewBTree(0), NewBST(1<<40)
		ref := map[int64]int64{}
		for i, op := range ops {
			k, v := int64(op%512), int64(i)
			bt.Insert(k, v)
			bst.Insert(k, v)
			ref[k] = v
		}
		if bt.Len() != len(ref) || bst.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			b1, ok1 := bt.Get(k)
			b2, ok2 := bst.Get(k)
			if !ok1 || !ok2 || b1 != v || b2 != v {
				return false
			}
		}
		// Range scans visit every key exactly once.
		h := cache.FromMachine(hw.Laptop())
		a, _ := bt.TracedScan(h, 0, 511, len(ref)+1)
		b, _ := bst.TracedScan(h, 0, 511, len(ref)+1)
		return a == len(ref) && b == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: B+-tree height stays logarithmic under sorted (adversarial for
// BSTs) insertion.
func TestBTreeSortedInsertionProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw)%5000 + 64
		bt := NewBTree(0)
		for i := 0; i < n; i++ {
			bt.Insert(int64(i), int64(i))
		}
		maxHeight := int(math.Ceil(math.Log(float64(n))/math.Log(btreeOrder/2))) + 2
		if bt.Height() > maxHeight {
			return false
		}
		for i := 0; i < n; i += 97 {
			if v, ok := bt.Get(int64(i)); !ok || v != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTracedScanCountsAndOrder(t *testing.T) {
	m := hw.Laptop()
	keys := workload.ShuffledInts(8, 5000)
	bt, bst := NewBTree(0), NewBST(1<<40)
	for _, k := range keys {
		bt.Insert(k, k)
		bst.Insert(k, k)
	}
	hb, hs := cache.FromMachine(m), cache.FromMachine(m)
	nb, cb := bt.TracedScan(hb, 100, 299, 1000)
	ns, cs := bst.TracedScan(hs, 100, 299, 1000)
	if nb != 200 || ns != 200 {
		t.Fatalf("visited %d / %d, want 200", nb, ns)
	}
	if cb <= 0 || cs <= 0 {
		t.Fatal("traced scans should cost cycles")
	}
	// Limit respected.
	nb, _ = bt.TracedScan(cache.FromMachine(m), 0, 4999, 50)
	ns, _ = bst.TracedScan(cache.FromMachine(m), 0, 4999, 50)
	if nb != 50 || ns != 50 {
		t.Fatalf("limit: visited %d / %d, want 50", nb, ns)
	}
}

func TestTracedScanBTreeBeatsBSTOnRanges(t *testing.T) {
	m := hw.Laptop()
	const n = 1 << 17
	keys := workload.ShuffledInts(9, n)
	bt, bst := NewBTree(0), NewBST(1<<40)
	for _, k := range keys {
		bt.Insert(k, k)
		bst.Insert(k, k)
	}
	hb, hs := cache.FromMachine(m), cache.FromMachine(m)
	var cb, cs float64
	for _, start := range workload.UniformInts(10, 200, n-200) {
		_, c1 := bt.TracedScan(hb, start, start+99, 100)
		cb += c1
		_, c2 := bst.TracedScan(hs, start, start+99, 100)
		cs += c2
	}
	if cb*2 > cs {
		t.Fatalf("B+-tree range scans (%.0f) should be >2x cheaper than BST (%.0f)", cb, cs)
	}
}
