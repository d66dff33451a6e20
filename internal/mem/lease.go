// Package mem provides the memory substrate of hwstar: the lease, whose
// reference-counted size-class pools recycle request columns, group-sum
// answer maps and registered tables' block headers and payloads once their
// last reader lets go; the governor, which admits, charges and sheds memory per query and
// tenant; and NUMA placement bookkeeping that tells the hardware model which
// socket's memory a region lives on.
//
// Real NUMA placement is impossible from portable Go (and the build host has
// a single socket anyway), so placement here is explicit metadata: allocators
// decide a distribution of bytes over nodes according to a policy, and the
// scheduler/cost model turns "reader on socket 2, region interleaved over 4
// nodes" into local and remote traffic. The arithmetic is exactly what an OS
// with the corresponding mbind/numactl policy would produce.
package mem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Lease owns pooled storage for one lifetime — a request's int64 columns and
// group-sum answer maps, a registered table's block headers and encoded
// payload words. Every
// party that may read them after its caller has returned holds a reference,
// and the last Release puts them back into their size-class pools:
// reference-counted deferred reclamation. A nil *Lease is valid: Column,
// Words and Map are make, Acquire and Release do nothing, so a caller that
// owns its storage passes none.
//
// Column and Words are called only by l's creator, before it shares l. Map
// is called by the holders themselves — executors, two at once when a hedged
// request runs on two replicas — so the maps it holds are behind their own
// lock.
type Lease struct {
	refs  atomic.Int32
	cols  []*[]int64  // appended to only by the creator, before it shares l
	words []*[]uint64 // likewise
	mu    sync.Mutex
	maps  []leasedMap // guarded by mu
	// colBuf backs cols up to a join's four columns, so a request's lease
	// is one allocation.
	colBuf [4]*[]int64
}

// leasedMap is a map a lease holds and the class pool it goes back to.
type leasedMap struct {
	m     map[int64]int64
	class int
}

// Size classes are log-linear: exact up to 16 elements, then 8 steps per
// power of two, so a class is at most 12.5 % over the length asked for.
// Lengths past maxPooled (16 M elements, 128 MiB: past any body the frontend
// accepts and any column Register encodes) are plain makes.
const (
	classSteps = 3 // log2 of the steps per power of two
	maxPooled  = 1 << 24
	classes    = 176 // class(maxPooled) + 1

	maxPooledMap = 1 << 16 // keys; past it, Map is make
)

// mapClass returns the power-of-two class of a map for n keys, or -1 past
// maxPooledMap. A map made at its class's count never grows holding n keys.
func mapClass(n int) int {
	if n > maxPooledMap {
		return -1
	}
	return bits.Len(uint(max(n, 1) - 1))
}

var (
	colPools  [classes]sync.Pool
	wordPools [classes]sync.Pool
	mapPools  [17]sync.Pool // mapClass(maxPooledMap) + 1
)

// class returns the pool index and element count of the smallest class
// holding n > 0 elements. class(size) is class(n) again.
func class(n int) (idx, size int) {
	s := max(bits.Len(uint(n-1))-classSteps-1, 0)
	m := (n - 1) >> s
	return s<<classSteps + m, (m + 1) << s
}

// NewLease returns a lease holding one reference, its caller's. Leases are
// not pooled, so a Release past the last one always panics instead of
// dropping a reference another owner's recycled lease holds.
func NewLease() *Lease {
	l := new(Lease)
	l.refs.Store(1)
	l.cols = l.colBuf[:0]
	return l
}

// Column returns an n-element column that lives until l's last Release. It
// is not zeroed, so the caller must write every element.
func (l *Lease) Column(n int) []int64 {
	if l == nil || n == 0 || n > maxPooled {
		return make([]int64, n)
	}
	return take(&colPools, &l.cols, n)
}

// Words is Column for uint64 words, pooled apart from columns.
func (l *Lease) Words(n int) []uint64 {
	if l == nil || n == 0 || n > maxPooled {
		return make([]uint64, n)
	}
	return take(&wordPools, &l.words, n)
}

// Map returns an empty map with room for n keys that lives until l's last
// Release, when it is cleared and pooled. Any holder may call it.
func (l *Lease) Map(n int) map[int64]int64 {
	c := mapClass(n)
	if l == nil || c < 0 {
		return make(map[int64]int64, n)
	}
	m, _ := mapPools[c].Get().(map[int64]int64)
	if m == nil {
		m = make(map[int64]int64, 1<<c)
	}
	l.mu.Lock()
	l.maps = append(l.maps, leasedMap{m, c})
	l.mu.Unlock()
	return m
}

// take returns n elements of a slice from n's class pool, allocating the
// class size on a miss, and appends the slice to held.
func take[T int64 | uint64](pools *[classes]sync.Pool, held *[]*[]T, n int) []T {
	c, size := class(n)
	p, _ := pools[c].Get().(*[]T)
	if p == nil {
		s := make([]T, size)
		p = &s
	}
	*held = append(*held, p)
	return (*p)[:n:n]
}

// giveBack returns every slice in held to its class pool and drops held.
func giveBack[T int64 | uint64](pools *[classes]sync.Pool, held *[]*[]T) {
	for _, p := range *held {
		c, _ := class(cap(*p))
		pools[c].Put(p)
	}
	*held = nil
}

// Acquire adds a reference for a party that may read l's slices later.
func (l *Lease) Acquire() {
	if l != nil {
		l.refs.Add(1)
	}
}

// Release drops one reference; the last returns the slices and the maps to
// their pools. Releasing more often than acquiring panics: it would recycle
// slices under a reader still holding them.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	if n := l.refs.Add(-1); n < 0 {
		panic("mem: lease released more often than acquired")
	} else if n > 0 {
		return
	}
	giveBack(&colPools, &l.cols)
	giveBack(&wordPools, &l.words)
	for _, h := range l.maps { // no holder is left to call Map
		clear(h.m) // keeps the map's storage
		mapPools[h.class].Put(h.m)
	}
	l.maps = nil
}
