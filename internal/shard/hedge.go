package shard

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hwstar/internal/serve"
)

// The hedge deadline of an op class is the upper edge of the log2-µs bucket
// holding the p95 of the class's recent dispatch times (Dean & Barroso, "The
// Tail at Scale"), floored at minHedgeDelay: below it a hedge would race
// scheduling noise, not stragglers. Bucket b counts dispatches of
// [2^(b-1), 2^b) µs, bucket 0 those under 1 µs, and the last bucket
// everything slower.
//
// A class with fewer than hedgeWarmup samples has no p95 yet and does not
// hedge. When a class reaches halveAt samples every bucket halves, so the p95
// is over the last few hundred dispatches: a lasting 10x shift either way is
// followed within 4*halveAt dispatches.
const (
	minHedgeDelay  = 50 * time.Microsecond
	latencyBuckets = 24
	hedgeWarmup    = 64
	halveAt        = 512
)

// classOps lists the op classes in index order: a class's dispatches share
// one latency histogram. An op not listed shares the last class.
var classOps = [...]serve.Op{serve.OpScan, serve.OpJoin, serve.OpGroupSum, serve.OpQ1, serve.OpQ6}

const opClasses = len(classOps)

func opClass(op serve.Op) int {
	c := 0
	for c < opClasses-1 && classOps[c] != op {
		c++
	}
	return c
}

// latencyClass is one op class's histogram of successful dispatch times.
// Recording and reading are atomic adds and loads: no lock, no sort, no
// allocation on the dispatch path.
type latencyClass struct {
	n       atomic.Int64 // samples recorded minus samples halved away
	buckets [latencyBuckets]atomic.Int64
}

func (c *latencyClass) record(d time.Duration) {
	b := bits.Len64(uint64(d.Microseconds()))
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	c.buckets[b].Add(1)
	// Only the record that takes the count to halveAt halves, and the count
	// cannot reach it again before that halving has subtracted what it removed.
	if c.n.Add(1) != halveAt {
		return
	}
	var removed int64
	for i := range c.buckets {
		half := (c.buckets[i].Load() + 1) / 2 // a concurrent record's add is kept
		c.buckets[i].Add(-half)
		removed += half
	}
	c.n.Add(-removed)
}

// deadline returns the class's hedge deadline, or 0 while it warms up. A
// halving between the loads of the count and of the buckets can leave the
// walk short of the rank; that one dispatch then waits out the last bucket.
func (c *latencyClass) deadline() time.Duration {
	n := c.n.Load()
	if n < hedgeWarmup {
		return 0
	}
	rank := n - n/20 // ceil(0.95 n)
	var cum int64
	b := 0
	for ; b < latencyBuckets-1; b++ {
		if cum += c.buckets[b].Load(); cum >= rank {
			break
		}
	}
	return max(minHedgeDelay, time.Microsecond<<b)
}

// hedgeDelayFor returns how long a dispatch of class c waits on an attempt
// before hedging, or 0 for never. The hedgeDelay test seam overrides it.
func (r *Router) hedgeDelayFor(c int) time.Duration {
	if r.opts.hedgeDelay > 0 {
		return r.opts.hedgeDelay
	}
	return r.lat[c].deadline()
}
