package mem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Lease owns one request's pooled int64 columns. Every party that may read
// them after its caller has returned holds a reference, and the last Release
// puts them back into their size-class pools: reference-counted deferred
// reclamation. A nil *Lease is valid: Column is make, Acquire and Release do
// nothing, so a caller that owns its slices passes none.
type Lease struct {
	refs atomic.Int32
	cols []*[]int64 // appended to only by the creator, before it shares l
}

// colClasses bounds the pools: class c holds columns of 1<<c elements, up to
// 128 MiB, past any body the frontend accepts. Longer columns are plain makes.
const colClasses = 25

var leases = sync.Pool{New: func() any { return new(Lease) }}
var colPools [colClasses]sync.Pool

// NewLease returns a pooled lease holding one reference, its caller's.
func NewLease() *Lease {
	l := leases.Get().(*Lease)
	l.refs.Store(1)
	return l
}

// Column returns an n-element column that lives until l's last Release. It
// is not zeroed, so the caller must write every element.
func (l *Lease) Column(n int) []int64 {
	c := bits.Len(uint(n - 1)) // the smallest class with 1<<c >= n
	if l == nil || n == 0 || c >= colClasses {
		return make([]int64, n)
	}
	p, _ := colPools[c].Get().(*[]int64)
	if p == nil {
		col := make([]int64, 1<<c)
		p = &col
	}
	l.cols = append(l.cols, p)
	return (*p)[:n:n]
}

// Acquire adds a reference for a party that may read l's columns later.
func (l *Lease) Acquire() {
	if l != nil {
		l.refs.Add(1)
	}
}

// Release drops one reference; the last returns the columns and l to their
// pools. Releasing more often than acquiring panics: it would recycle columns
// under a reader still holding them.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	if n := l.refs.Add(-1); n < 0 {
		panic("mem: lease released more often than acquired")
	} else if n > 0 {
		return
	}
	for _, p := range l.cols {
		colPools[bits.Len(uint(cap(*p)-1))].Put(p)
	}
	clear(l.cols)
	l.cols = l.cols[:0]
	leases.Put(l)
}
