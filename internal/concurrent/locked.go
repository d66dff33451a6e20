package concurrent

import (
	"math"
	"sync"

	"hwstar/internal/hw"
	"hwstar/internal/index"
)

// LockedTree wraps the cache-conscious B+-tree with one reader-writer latch
// — the conventional shared-index design whose writers serialize and whose
// latch cache line bounces between cores. It exists as the baseline the
// latch-free structure is measured against; its single-threaded performance
// is excellent, which is exactly the trap.
type LockedTree struct {
	mu sync.RWMutex
	bt *index.BTree
}

// NewLockedTree returns an empty lock-protected B+-tree.
func NewLockedTree() *LockedTree {
	return &LockedTree{bt: index.NewBTree(0)}
}

// Insert stores (key, value) under the write latch.
func (t *LockedTree) Insert(key, value int64) {
	t.mu.Lock()
	t.bt.Insert(key, value)
	t.mu.Unlock()
}

// Get returns the value under key, taking the read latch.
func (t *LockedTree) Get(key int64) (int64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bt.Get(key)
}

// Len returns the number of stored keys.
func (t *LockedTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bt.Len()
}

// Cost model for E15 — update-heavy access to a shared index by P workers.
//
// Both models share the same per-operation structural work (a descent of
// the ordered structure, cache-resident levels plus a DRAM-class leaf
// touch). They differ in what sharing costs:
//
//   - the locked tree serializes writers: its makespan has a serial term of
//     lockHold cycles per write, plus latch-line transfer on every
//     acquisition;
//   - the latch-free list admits concurrent writers; contention appears
//     only as CAS retries, whose probability scales with P over the number
//     of distinct hot insertion points.

// opWork is the structural cost of one index operation against an index of
// n keys on machine m (dependent descent into a DRAM-resident structure).
func opWork(n int64) hw.Work {
	return hw.Work{
		Name:            "index-op",
		Tuples:          1,
		ComputePerTuple: 40, // descent comparisons and bookkeeping
		RandomReads:     3,  // levels that miss cache
		RandomWS:        n * 32,
	}
}

// lockHoldCycles is the latch hold time of one write (acquire, update leaf,
// release) and latchTransferCycles the cross-core latch line transfer.
const (
	lockHoldCycles      = 120.0
	latchTransferCycles = 120.0
)

// LockedMakespan returns the modeled cycles for ops update operations by
// `workers` cores against a locked index of n keys on m: the non-critical
// work runs in parallel, but every write holds the latch serially and every
// acquisition bounces the latch line once there is more than one worker.
func LockedMakespan(m *hw.Machine, n, ops int64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	per := m.Cycles(opWork(n), hw.ExecContext{ActiveCoresOnSocket: workers, InterferenceFactor: 1})
	parallel := float64(ops) * per / float64(workers)
	serial := float64(ops) * lockHoldCycles
	if workers > 1 {
		serial += float64(ops) * latchTransferCycles
	}
	return parallel + serial
}

// casRetryBase is the cost of one failed CAS (line transfer + retry work).
const casRetryBase = 150.0

// LatchFreeMakespan returns the modeled cycles for the same workload on the
// latch-free list: fully parallel, with CAS retries whose expected count per
// operation grows with workers over the breadth of insertion points
// (~sqrt(n) distinct hot neighbourhoods for uniform keys).
func LatchFreeMakespan(m *hw.Machine, n, ops int64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	per := m.Cycles(opWork(n), hw.ExecContext{ActiveCoresOnSocket: workers, InterferenceFactor: 1})
	hotPoints := float64(n)
	if hotPoints > 1 {
		// Conflicts need two writers in the same predecessor neighbourhood.
		hotPoints = math.Sqrt(hotPoints)
	}
	retryProb := float64(workers-1) / hotPoints
	if retryProb > 1 {
		retryProb = 1
	}
	perOp := per + retryProb*casRetryBase
	return float64(ops) * perOp / float64(workers)
}
