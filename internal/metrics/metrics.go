// Package metrics provides lightweight counters, gauges, and histograms used
// throughout hwstar to record both real (wall-clock) and simulated
// (model-cycle) measurements.
//
// The package is deliberately dependency-free and allocation-free on the
// recording path: every Record, Add and Set is a few atomic operations on
// fixed storage, and readers walk that storage without a lock or a sort.
// Histograms are fixed log-linear buckets, so two of them add with Merge
// (one series summed over a cluster's nodes).
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Negative deltas are permitted so that
// callers can implement gauges on top of Counter, but the common use is
// monotonic counting.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable 64-bit value safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram's buckets are log-linear: a value in [2^-20, 2^44) lands in the
// bucket its float64 exponent and top three mantissa bits name (its bits >>
// 49), an eighth of an octave. Bucket 0 holds everything below the range
// (zero, negatives, NaN), the last bucket everything above it.
const (
	numBuckets = 64*8 + 2
	firstKey   = (1023 - 20) << 3 // 2^-20's bits >> 49, bucket 1's
)

var lowest, highest = math.Ldexp(1, -20), math.Ldexp(1, 44)

// Histogram records float64 samples in fixed log-linear buckets. Record is a
// few atomic operations: no lock, no allocation. Count, Sum, Min and Max are
// exact; Quantile is read off the buckets. The zero value is an empty
// histogram, and histograms add with Merge.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Uint64 // float64 bits
	// The largest sample's orderKey, and the complement of the smallest's:
	// zero, the empty value, is below every key in both.
	maxKey, minKey atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketOf(v float64) int {
	switch {
	case !(v >= lowest):
		return 0
	case v >= highest:
		return numBuckets - 1
	}
	return int(math.Float64bits(v)>>49) - firstKey + 1
}

// orderKey maps a float64 to a uint64 of the same order.
func orderKey(v float64) uint64 {
	k := math.Float64bits(v)
	if k>>63 == 1 {
		return ^k
	}
	return k | 1<<63
}

// fromKey inverts orderKey. The keys of no number, 0 and ^0, are an empty
// histogram's extremes and read as 0.
func fromKey(k uint64) float64 {
	switch {
	case k == 0 || k == ^uint64(0):
		return 0
	case k>>63 == 1:
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// raise stores k in a unless a holds more.
func raise(a *atomic.Uint64, k uint64) {
	for old := a.Load(); k > old && !a.CompareAndSwap(old, k); old = a.Load() {
	}
}

// addFloat adds d to the float64 whose bits a holds.
func addFloat(a *atomic.Uint64, d float64) {
	for old := a.Load(); !a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)); old = a.Load() {
	}
}

// Record adds one sample. Its bucket goes last, so a reader that counts the
// sample sees its sum and extremes too.
func (h *Histogram) Record(v float64) {
	k := orderKey(v)
	raise(&h.maxKey, k)
	raise(&h.minKey, ^k)
	addFloat(&h.sum, v)
	h.buckets[bucketOf(v)].Add(1)
}

// Merge adds o's samples to h. A sample recorded into o meanwhile may be
// partly merged.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	raise(&h.maxKey, o.maxKey.Load())
	raise(&h.minKey, o.minKey.Load())
	addFloat(&h.sum, o.Sum())
}

// Halve removes half of each bucket's samples, rounding up, and returns how
// many it removed: repeated, it decays the buckets to the recent samples.
// Sum, Min and Max keep covering every sample.
func (h *Histogram) Halve() int64 {
	var removed int64
	for i := range h.buckets {
		half := (h.buckets[i].Load() + 1) / 2 // a concurrent record's add is kept
		h.buckets[i].Add(-half)
		removed += half
	}
	return removed
}

// Count returns the number of recorded samples: the buckets' sum. There is
// no count word, so Record makes one atomic add fewer.
func (h *Histogram) Count() int {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return int(n)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 { return h.Sum() / float64(max(1, h.Count())) }

// Min returns the smallest sample, or 0 for an empty histogram.
func (h *Histogram) Min() float64 { return fromKey(^h.minKey.Load()) }

// Max returns the largest sample, or 0 for an empty histogram.
func (h *Histogram) Max() float64 { return fromKey(h.maxKey.Load()) }

// Quantile returns the nearest-rank q-quantile: the middle of the bucket
// holding the ceil(q*n)-th smallest sample (Max for the overflow bucket),
// clamped to [Min, Max]. For a sample in the bucket range that is within 1/16
// of it, and it is exact when all samples are equal. A Halve racing the walk
// can leave it short of the rank: then Max.
//
// Out-of-domain inputs are defined: q <= 0 returns the minimum, q >= 1 the
// maximum, a NaN q returns NaN, and an empty histogram returns 0 for any q.
func (h *Histogram) Quantile(q float64) float64 {
	n := int64(h.Count())
	switch {
	case n == 0:
		return 0
	case math.IsNaN(q):
		return math.NaN()
	case q <= 0:
		return h.Min()
	case q >= 1:
		return h.Max()
	}
	rank := max(1, int64(math.Ceil(q*float64(n))))
	v := h.Max()
	for b, cum := 0, int64(0); b < numBuckets-1; b++ {
		if cum += h.buckets[b].Load(); cum >= rank {
			// The bucket's middle is its key with the next mantissa bit set.
			v = math.Float64frombits(uint64(b-1+firstKey)<<49 | 1<<48)
			break
		}
	}
	return min(max(v, h.Min()), h.Max())
}

// HistogramStats is a compact, copyable summary of a histogram — what
// health endpoints and experiment tables need without holding the samples.
type HistogramStats struct {
	Count                              int
	Sum, Mean, Min, P50, P95, P99, Max float64
}

// Stats returns the histogram's summary statistics.
func (h *Histogram) Stats() HistogramStats {
	return HistogramStats{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Registry is a named collection of counters and histograms. Operators and
// substrates register their metrics here so that experiments can snapshot
// everything that happened during a run.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	hists  map[string]*Histogram
	gauges map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
		gauges: make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns the histogram with the given name, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Gauges returns a snapshot of all gauge values keyed by name.
func (r *Registry) Gauges() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.gauges))
	for k, g := range r.gauges {
		out[k] = g.Value()
	}
	return out
}

// Counters returns a snapshot of all counter values keyed by name.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.ctrs))
	for k, c := range r.ctrs {
		out[k] = c.Value()
	}
	return out
}

// Snapshot is a point-in-time copy of everything a registry recorded.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramStats
}

// Snapshot captures all counters, gauges, and histogram summaries at once,
// for health reporting and experiment output.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: r.Counters(), Gauges: r.Gauges()}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Histograms = make(map[string]HistogramStats, len(r.hists))
	for k, h := range r.hists {
		s.Histograms[k] = h.Stats()
	}
	return s
}
