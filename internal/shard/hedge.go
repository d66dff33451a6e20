package shard

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hwstar/internal/metrics"
	"hwstar/internal/serve"
)

// The hedge deadline of an op class is the upper edge of the power-of-two
// octave of microseconds that holds the p95 of the class's recent dispatch
// times (Dean & Barroso, "The Tail at Scale"), floored at minHedgeDelay
// (below it a hedge would race scheduling noise, not stragglers) and capped
// at maxHedgeDelay. The p95 is read off a metrics.Histogram of whole
// microseconds, whose buckets split octaves and never straddle them, so
// before any halving the octave is the true p95's.
//
// A class with fewer than hedgeWarmup samples has no p95 yet and does not
// hedge. When a class reaches halveAt samples its histogram halves, so the
// p95 is over the last few hundred dispatches: a lasting 10x shift either way
// is followed within 4*halveAt dispatches.
const (
	minHedgeDelay = 50 * time.Microsecond
	maxHedgeDelay = time.Microsecond << 23
	hedgeWarmup   = 64
	halveAt       = 512
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
	n atomic.Int64 // samples recorded minus samples halved away
	h metrics.Histogram
}

func (c *latencyClass) record(d time.Duration) {
	c.h.Record(float64(d.Microseconds()))
	// Only the record that takes the count to halveAt halves, and the count
	// cannot reach it again before that halving has subtracted what it removed.
	if c.n.Add(1) == halveAt {
		c.n.Add(-c.h.Halve())
	}
}

// deadline returns the class's hedge deadline, or 0 while it warms up. A
// halving during the histogram's walk reads the p95 as the class's maximum;
// that one dispatch then waits out a longer deadline.
func (c *latencyClass) deadline() time.Duration {
	if c.n.Load() < hedgeWarmup {
		return 0
	}
	// A p95 of 2^22 µs or more is in maxHedgeDelay's octave.
	p95 := min(c.h.Quantile(0.95), float64(maxHedgeDelay/time.Microsecond/2))
	return max(minHedgeDelay, time.Microsecond<<bits.Len64(uint64(p95)))
}

// hedgeDelayFor returns how long a dispatch of class c waits on an attempt
// before hedging, or 0 for never. The hedgeDelay test seam overrides it.
func (r *Router) hedgeDelayFor(c int) time.Duration {
	if r.opts.hedgeDelay > 0 {
		return r.opts.hedgeDelay
	}
	return r.lat[c].deadline()
}
