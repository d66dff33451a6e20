// Package metrics provides lightweight counters, timers, and histograms used
// throughout hwstar to record both real (wall-clock) and simulated
// (model-cycle) measurements.
//
// The package is deliberately dependency-free and allocation-conscious:
// experiment harnesses create thousands of histograms and counters during a
// parameter sweep, and the cost of recording a sample must be negligible
// compared to the work being measured.
package metrics

import (
	"math"
	"sort"
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

// DefaultReservoir is the default sample bound of a Histogram: below it every
// sample is kept and order statistics are exact; above it the histogram keeps
// a uniform reservoir of this size, so memory stays bounded under sustained
// serving load while count, sum, mean, min, and max remain exact.
const DefaultReservoir = 8192

// Histogram records float64 samples and reports order statistics. It is
// bounded: up to DefaultReservoir samples are all retained and quantiles are
// exact; beyond it, reservoir sampling (Vitter's Algorithm R, deterministic
// seed) keeps a uniform subset for quantile estimation. Count, Sum, Mean,
// Min, and Max are always computed over every recorded sample. Record is
// O(1); quantile queries sort the reservoir lazily.
type Histogram struct {
	mu       sync.Mutex
	vals     []float64 // the reservoir (all samples while count <= DefaultReservoir)
	sorted   bool
	count    int64
	sum      float64
	minV     float64
	maxV     float64
	rngState uint64
}

// NewHistogram returns an empty histogram with capacity hint n and the
// default reservoir bound.
func NewHistogram(n int) *Histogram {
	if n > DefaultReservoir {
		n = DefaultReservoir
	}
	return &Histogram{vals: make([]float64, 0, n), rngState: 0x9E3779B97F4A7C15}
}

// nextRand is a splitmix64 step — a tiny deterministic generator so reservoir
// eviction does not contend on the global math/rand lock.
func (h *Histogram) nextRand() uint64 {
	h.rngState += 0x9E3779B97F4A7C15
	z := h.rngState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Record adds one sample.
func (h *Histogram) Record(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.minV {
		h.minV = v
	}
	if h.count == 0 || v > h.maxV {
		h.maxV = v
	}
	h.count++
	h.sum += v
	if len(h.vals) < DefaultReservoir {
		h.vals = append(h.vals, v)
		h.sorted = false
	} else if j := h.nextRand() % uint64(h.count); j < DefaultReservoir {
		// Algorithm R: sample i (>= DefaultReservoir) replaces a random slot
		// with probability DefaultReservoir/i, keeping the reservoir uniform
		// over all samples seen.
		h.vals[j] = v
		h.sorted = false
	}
	h.mu.Unlock()
}

// Count returns the number of recorded samples (all of them, not just the
// retained reservoir).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample (exact), or 0 for an empty histogram.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.minV
}

// Max returns the largest sample (exact), or 0 for an empty histogram.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxV
}

// Quantile returns the q-quantile using linear interpolation between order
// statistics (the "type 7" estimator): position q*(n-1) in the sorted
// samples, interpolating between the two neighbouring ranks when it is
// fractional. Once the sample count exceeds the reservoir bound the result
// is an estimate over a uniform subsample; the q=0 and q=1 endpoints stay
// exact (tracked min/max).
//
// Out-of-domain inputs are defined: q is clamped to [0, 1] (q <= 0 returns
// the minimum, q >= 1 the maximum), a NaN q returns NaN, and an empty
// histogram returns 0 for any q.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.minV
	}
	if q >= 1 {
		return h.maxV
	}
	h.ensureSortedLocked()
	n := len(h.vals)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.vals[lo]
	}
	frac := pos - float64(lo)
	return h.vals[lo]*(1-frac) + h.vals[hi]*frac
}

func (h *Histogram) ensureSortedLocked() {
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
}

// HistogramStats is a compact, copyable summary of a histogram — what
// health endpoints and experiment tables need without holding the samples.
type HistogramStats struct {
	Count                              int
	Sum, Mean, Min, P50, P95, P99, Max float64
}

// Stats returns the histogram's summary statistics in one lock acquisition
// per quantile family.
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
		h = NewHistogram(64)
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
	r.mu.Lock()
	hists := make([]*Histogram, 0, len(r.hists))
	names := make([]string, 0, len(r.hists))
	for k, h := range r.hists {
		hists = append(hists, h)
		names = append(names, k)
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   r.Counters(),
		Gauges:     r.Gauges(),
		Histograms: make(map[string]HistogramStats, len(hists)),
	}
	// Histogram stats are computed outside the registry lock: Quantile
	// sorts lazily and must not block concurrent Counter/Histogram lookups.
	for i, h := range hists {
		s.Histograms[names[i]] = h.Stats()
	}
	return s
}
