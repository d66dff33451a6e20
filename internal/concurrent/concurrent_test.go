package concurrent

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
	"hwstar/internal/workload"
)

// orderedMap is the shared behaviour of both structures.
type orderedMap interface {
	Insert(key, value int64)
	Get(key int64) (int64, bool)
	Len() int
}

func implementations() map[string]func() orderedMap {
	return map[string]func() orderedMap{
		"skiplist": func() orderedMap { return NewSkipList(1) },
		"locked":   func() orderedMap { return NewLockedTree() },
	}
}

func TestInsertGetSequential(t *testing.T) {
	for name, mk := range implementations() {
		m := mk()
		keys := workload.ShuffledInts(2, 3000)
		for _, k := range keys {
			m.Insert(k, k*7)
		}
		if m.Len() != 3000 {
			t.Fatalf("%s: len = %d", name, m.Len())
		}
		for _, k := range keys {
			v, ok := m.Get(k)
			if !ok || v != k*7 {
				t.Fatalf("%s: Get(%d) = %d, %v", name, k, v, ok)
			}
		}
		if _, ok := m.Get(99999); ok {
			t.Fatalf("%s: phantom key", name)
		}
	}
}

func TestUpdateInPlace(t *testing.T) {
	for name, mk := range implementations() {
		m := mk()
		m.Insert(5, 1)
		m.Insert(5, 2)
		if m.Len() != 1 {
			t.Fatalf("%s: len = %d", name, m.Len())
		}
		if v, _ := m.Get(5); v != 2 {
			t.Fatalf("%s: update lost, v = %d", name, v)
		}
	}
}

// TestScanOrdered: the skip list's scan is the ordered view the other tests
// read the structure's invariant through.
func TestScanOrdered(t *testing.T) {
	m := NewSkipList(1)
	for _, k := range workload.ShuffledInts(3, 500) {
		m.Insert(k, k)
	}
	var got []int64
	m.Scan(100, 199, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("scan = %d keys [%d..%d]", len(got), got[0], got[len(got)-1])
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan out of order")
	}
	// Early stop.
	n := 0
	m.Scan(0, 499, func(k, v int64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSkipListNegativeAndExtremeKeys(t *testing.T) {
	s := NewSkipList(4)
	keys := []int64{0, -1, 1, -1 << 62, 1 << 62}
	for _, k := range keys {
		s.Insert(k, k)
	}
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	var got []int64
	s.Scan(-1<<62, 1<<62, func(k, v int64) bool { got = append(got, k); return true })
	if len(got) != 5 {
		t.Fatalf("scan = %v", got)
	}
}

// TestConcurrentInserts hammers both structures from many goroutines and
// verifies no key is lost — run with -race this doubles as the memory-model
// check for the latch-free code.
func TestConcurrentInserts(t *testing.T) {
	for name, mk := range implementations() {
		m := mk()
		const workers, perWorker = 8, 2000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					k := int64(w*perWorker + i)
					m.Insert(k, k*3)
				}
			}()
		}
		wg.Wait()
		if m.Len() != workers*perWorker {
			t.Fatalf("%s: len = %d, want %d", name, m.Len(), workers*perWorker)
		}
		for k := int64(0); k < workers*perWorker; k++ {
			if v, ok := m.Get(k); !ok || v != k*3 {
				t.Fatalf("%s: lost key %d (v=%d ok=%v)", name, k, v, ok)
			}
		}
	}
}

// TestConcurrentOverlappingKeys makes goroutines race on the same keys:
// every key must end with one of the written values and Len must count
// distinct keys exactly once.
func TestConcurrentOverlappingKeys(t *testing.T) {
	for name, mk := range implementations() {
		m := mk()
		const workers, keys = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int64(0); k < keys; k++ {
					m.Insert(k, int64(w))
				}
			}()
		}
		wg.Wait()
		if m.Len() != keys {
			t.Fatalf("%s: len = %d, want %d", name, m.Len(), keys)
		}
		for k := int64(0); k < keys; k++ {
			v, ok := m.Get(k)
			if !ok || v < 0 || v >= workers {
				t.Fatalf("%s: key %d has foreign value %d", name, k, v)
			}
		}
	}
}

// TestConcurrentReadersDuringWrites interleaves scans with inserts; scans
// must always see a sorted, duplicate-free prefix of the key space.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	s := NewSkipList(5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := int64(0); k < 20000; k++ {
			s.Insert(k, k)
		}
	}()
	for {
		var prev int64 = -1
		ok := true
		s.Scan(0, 1<<62, func(k, v int64) bool {
			if k <= prev {
				ok = false
				return false
			}
			prev = k
			return true
		})
		if !ok {
			t.Fatal("scan saw out-of-order or duplicate keys mid-insert")
		}
		select {
		case <-done:
			if s.Len() != 20000 {
				t.Fatalf("len = %d", s.Len())
			}
			return
		default:
		}
	}
}

func TestMakespanModels(t *testing.T) {
	m := hw.NUMA4S()
	const n, ops = 1 << 20, 1 << 20
	// Single worker: the locked tree is FASTER (no retries, cheap uncontended
	// latch vs CAS machinery is a wash; our model charges the latch hold
	// either way, so allow a small margin) — the point is it must not be
	// dramatically worse serially.
	l1 := LockedMakespan(m, n, ops, 1)
	f1 := LatchFreeMakespan(m, n, ops, 1)
	if l1 > 2*f1 {
		t.Fatalf("serial locked %e should be in the same class as latch-free %e", l1, f1)
	}
	// Scaling: by 32 workers the latch-free structure must be far ahead,
	// and the locked tree's makespan must flatline (serial term dominates).
	l32 := LockedMakespan(m, n, ops, 32)
	f32 := LatchFreeMakespan(m, n, ops, 32)
	if f32 >= l32 {
		t.Fatalf("at 32 workers latch-free %e should beat locked %e", f32, l32)
	}
	if speedup := l1 / l32; speedup > 4 {
		t.Fatalf("locked tree should not scale: speedup %f", speedup)
	}
	if speedup := f1 / f32; speedup < 8 {
		t.Fatalf("latch-free should scale: speedup %f", speedup)
	}
}

// Property: the skip list agrees with a reference map under arbitrary
// insert/update sequences, and scans return exactly the sorted key set.
func TestSkipListEquivalenceProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		s := NewSkipList(seed)
		ref := map[int64]int64{}
		for i, op := range ops {
			k, v := int64(op%256), int64(i)
			s.Insert(k, v)
			ref[k] = v
		}
		if s.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := s.Get(k)
			if !ok || got != v {
				return false
			}
		}
		var keys []int64
		s.Scan(0, 256, func(k, v int64) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != len(ref) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
