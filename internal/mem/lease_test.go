package mem

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestLeaseHoldsColumnsUntilLastRelease: a column stays its lease's while any
// reference is left, so a fresh lease is never handed it; a nil lease makes
// plain columns and counts nothing.
func TestLeaseHoldsColumnsUntilLastRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	for _, n := range []int{1, 3, 1 << 10, 1<<10 + 1} {
		l := NewLease()
		col := l.Column(n)
		if len(col) != n || cap(col) != n {
			t.Fatalf("Column(%d): len %d cap %d", n, len(col), cap(col))
		}
		l.Acquire()
		l.Release()
		fresh := NewLease()
		for i := 0; i < 4; i++ {
			if c := fresh.Column(n); &c[0] == &col[0] {
				t.Fatalf("Column(%d) handed out again while its lease held a reference", n)
			}
		}
		fresh.Release()
		l.Release()
	}

	var nl *Lease
	nl.Acquire()
	nl.Release()
	nl.Release()
	if c := nl.Column(5); len(c) != 5 || c[4] != 0 {
		t.Fatalf("nil lease Column(5) = %v", c)
	}
	if c := nl.Column(0); c == nil || len(c) != 0 {
		t.Fatalf("nil lease Column(0) = %#v, want empty and non-nil", c)
	}
}

// TestLeaseReleaseBelowZeroPanics: a release past the last reference would
// recycle columns under a reader still holding them, so it is a bug, loudly.
func TestLeaseReleaseBelowZeroPanics(t *testing.T) {
	l := NewLease()
	l.Column(8)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a one-reference lease did not panic")
		}
	}()
	l.Release()
}

// TestStrayReleaseNeverReachesANewLease: a stray Release after the last one
// panics even when another lease was made in between. A pooled Lease struct
// would come back from NewLease as the new lease, and the stray call would
// silently drop its owner's reference and recycle its columns.
func TestStrayReleaseNeverReachesANewLease(t *testing.T) {
	l := NewLease()
	l.Column(8)
	l.Release()
	next := NewLease()
	next.Column(8)
	defer func() {
		if recover() == nil {
			t.Fatal("a stray Release after a NewLease did not panic")
		}
		if n := next.refs.Load(); n != 1 {
			t.Fatalf("the new lease holds %d references, want its owner's 1", n)
		}
		next.Release()
	}()
	l.Release()
}

// TestClassesAreLogLinear pins the one class function Column and Words
// share: exact up to 16 elements, then at most 12.5 % over the length, a
// class size maps back to its own class, and maxPooled is the last class.
// Power-of-two classes (up to 100 % over) fail it.
func TestClassesAreLogLinear(t *testing.T) {
	prev := -1
	for n := 1; n <= maxPooled; n += 1 + n/64 {
		c, size := class(n)
		if size < n || (n > 16 && size-n > n/8) || (n <= 16 && size != n) {
			t.Fatalf("class(%d) size %d: not within 12.5 %% over", n, size)
		}
		if c < prev || c >= classes {
			t.Fatalf("class(%d) = %d after %d, of %d classes", n, c, prev, classes)
		}
		if back, again := class(size); back != c || again != size {
			t.Fatalf("class(%d) = (%d, %d) but class(%d) = (%d, %d)", n, c, size, size, back, again)
		}
		prev = c
	}
	if c, size := class(maxPooled); c != classes-1 || size != maxPooled {
		t.Fatalf("class(maxPooled) = (%d, %d), want (%d, %d)", c, size, classes-1, maxPooled)
	}
	if _, size := class(1<<20 + 1); size != 1<<20+1<<17 {
		t.Fatalf("class(1<<20+1) size %d, want %d", size, 1<<20+1<<17)
	}
}

// TestWordsHeldUntilLastRelease is the lease rule for Words: a slab stays its
// lease's while any reference is left, and comes back, dirty and at its
// asked-for length, once the last is dropped.
func TestWordsHeldUntilLastRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	const n = 3000
	l := NewLease()
	w := l.Words(n)
	if len(w) != n || cap(w) != n {
		t.Fatalf("Words(%d): len %d cap %d", n, len(w), cap(w))
	}
	for i := range w {
		w[i] = ^uint64(0)
	}
	l.Acquire()
	l.Release()
	fresh := NewLease()
	defer fresh.Release()
	if got := fresh.Words(n); &got[0] == &w[0] {
		t.Fatal("Words handed out again while its lease held a reference")
	}
	l.Release()
	again := NewLease()
	defer again.Release()
	got := again.Words(n - 5) // same class
	if !raceEnabled && &got[0] != &w[0] {
		t.Fatal("the released slab did not come back from its class pool")
	}
	if !raceEnabled && got[0] != ^uint64(0) {
		t.Fatal("Words cleared a recycled slab; its contract is not zeroed")
	}
	var nl *Lease
	if w := nl.Words(4); len(w) != 4 || w[3] != 0 {
		t.Fatalf("nil lease Words(4) = %v", w)
	}
}

// TestLeaseMapConcurrentTakes: holders take maps from one shared lease at
// once, as a hedged request's two executors do, and release as they finish.
// Under -race a map list without its lock is a reported write; every holder
// must also read back exactly what it filled.
func TestLeaseMapConcurrentTakes(t *testing.T) {
	const holders, keys = 8, 300
	l := NewLease()
	errc := make(chan error, holders)
	for h := 0; h < holders; h++ {
		l.Acquire()
		go func(h int64) {
			defer l.Release()
			m := l.Map(keys)
			for k := int64(0); k < keys; k++ {
				m[k] = h*keys + k
			}
			for k := int64(0); k < keys; k++ {
				if m[k] != h*keys+k || len(m) != keys {
					errc <- fmt.Errorf("holder %d: m[%d] = %d of %d keys", h, k, m[k], len(m))
					return
				}
			}
			errc <- nil
		}(int64(h))
	}
	l.Release()
	for h := 0; h < holders; h++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeaseMapClasses pins the map classes: powers of two of key count, 0
// and 1 sharing the first, up to 1<<16 keys; past that, and on a nil lease,
// Map is make, so a released map is never handed out again by either.
func TestLeaseMapClasses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	for _, c := range []struct{ n, class int }{{0, 0}, {1, 0}, {2, 1}, {4096, 12}, {4097, 13}, {1 << 16, 16}, {1<<16 + 1, -1}} {
		if got := mapClass(c.n); got != c.class {
			t.Fatalf("mapClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	if mapClass(maxPooledMap) != len(mapPools)-1 {
		t.Fatalf("mapClass(maxPooledMap) = %d for %d pools", mapClass(maxPooledMap), len(mapPools))
	}
	var nl *Lease
	for _, n := range []int{0, 1, 4096, 4097, 1<<16 + 1} {
		l := NewLease()
		m := l.Map(n)
		if m == nil || len(m) != 0 {
			t.Fatalf("Map(%d) = %v, want empty and non-nil", n, m)
		}
		m[1] = 1
		l.Release()
		pooled := mapClass(n) >= 0
		again := NewLease()
		// Under -race the pool may drop the Put, so only a miss is pinned.
		if same := identity(again.Map(n)) == identity(m); same != pooled && (!raceEnabled || same) {
			t.Fatalf("Map(%d) after its release: same map %v, want %v", n, same, pooled)
		}
		again.Release()
		if got := nl.Map(n); got == nil || len(got) != 0 || identity(got) == identity(m) {
			t.Fatalf("nil lease Map(%d) was not a fresh map", n)
		}
	}
}

// TestRecycledMapStartsEmpty: a released map comes back from its class pool
// cleared, so a group-sum over fewer or other keys never reports the last
// one's. Dropping the clear in Release fails it.
func TestRecycledMapStartsEmpty(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	l := NewLease()
	m := l.Map(4000)
	for k := int64(0); k < 4000; k++ {
		m[k] = -k
	}
	l.Release()
	again := NewLease()
	defer again.Release()
	got := again.Map(3000) // same class
	if identity(got) != identity(m) {
		t.Fatal("the released map did not come back from its class pool")
	}
	if len(got) != 0 {
		t.Fatalf("a recycled map holds %d keys, want none", len(got))
	}
}

// identity is a map's address: two map values are the same map iff equal.
func identity(m map[int64]int64) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }
