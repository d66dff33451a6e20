package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("new counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("sum = %f, want 15", h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("mean = %f, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %f/%f, want 1/5", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("median = %f, want 3", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %f, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("q1 = %f, want 5", got)
	}
}

func TestHistogramInterpolation(t *testing.T) {
	h := NewHistogram(2)
	h.Record(0)
	h.Record(10)
	if got := h.Quantile(0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("q0.25 = %f, want 2.5", got)
	}
}

func TestHistogramRecordAfterQuantile(t *testing.T) {
	// Recording after a quantile query must invalidate the sorted cache.
	h := NewHistogram(4)
	h.Record(5)
	_ = h.Quantile(0.5)
	h.Record(1)
	if got := h.Min(); got != 1 {
		t.Fatalf("min after late record = %f, want 1", got)
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			h.Record(v)
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := h.Quantile(qa), h.Quantile(qb)
		return va <= vb+1e-9 && va >= h.Min()-1e-9 && vb <= h.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median of a shuffled known multiset equals the true median.
func TestHistogramMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		h := NewHistogram(n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
			h.Record(vals[i])
		}
		sort.Float64s(vals)
		pos := 0.5 * float64(n-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		frac := pos - float64(lo)
		want := vals[lo]*(1-frac) + vals[hi]*frac
		if got := h.Quantile(0.5); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: median = %f, want %f", trial, got, want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(4)
	r.Counter("b").Inc()
	r.Histogram("h").Record(1)

	if got := r.Counter("a").Value(); got != 7 {
		t.Fatalf("counter a = %d, want 7", got)
	}
	snap := r.Counters()
	if snap["a"] != 7 || snap["b"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if got := r.Histogram("h").Count(); got != 1 {
		t.Fatalf("histogram h count = %d, want 1", got)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Record(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Fatalf("shared = %d, want 4000", got)
	}
	if got := r.Histogram("lat").Count(); got != 4000 {
		t.Fatalf("lat count = %d, want 4000", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram(8)
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	st := h.Stats()
	if st.Count != 100 || st.Mean != 50.5 || st.Max != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.P50 != h.Quantile(0.5) || st.P95 != h.Quantile(0.95) || st.P99 != h.Quantile(0.99) {
		t.Fatalf("stats quantiles disagree with Quantile: %+v", st)
	}
	if empty := NewHistogram(0).Stats(); empty.Count != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

// Regression for the unbounded-growth leak: 10M samples must stay under a
// hard memory ceiling, while count/sum/min/max stay exact.
func TestHistogramBoundedUnderSustainedLoad(t *testing.T) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	h := NewHistogram(64)
	const n = 10_000_000
	for i := 0; i < n; i++ {
		h.Record(float64(i % 1000))
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if len(h.vals) > DefaultReservoir {
		t.Fatalf("reservoir holds %d samples, bound is %d", len(h.vals), DefaultReservoir)
	}
	if h.Min() != 0 || h.Max() != 999 {
		t.Fatalf("min/max = %f/%f, want 0/999", h.Min(), h.Max())
	}
	if got, want := h.Sum(), float64(n/1000)*(999*1000/2); got != want {
		t.Fatalf("sum = %f, want %f", got, want)
	}
	// 10M float64 samples would be 80MB; the reservoir keeps 8192 (64KB).
	// Allow generous slack for allocator noise.
	const ceiling = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Fatalf("heap grew %d bytes recording 10M samples, ceiling %d", grew, ceiling)
	}
}

// Past the reservoir bound, quantiles are estimates over a uniform
// subsample; for a uniform input the median must land near the middle.
func TestHistogramReservoirQuantileEstimate(t *testing.T) {
	h := NewHistogram(0)
	rng := rand.New(rand.NewSource(7))
	const n = 200_000
	for i := 0; i < n; i++ {
		h.Record(rng.Float64() * 100)
	}
	if h.Count() != n || len(h.vals) != DefaultReservoir {
		t.Fatalf("count/reservoir = %d/%d, want %d/%d", h.Count(), len(h.vals), n, DefaultReservoir)
	}
	if p50 := h.Quantile(0.5); p50 < 40 || p50 > 60 {
		t.Fatalf("reservoir p50 = %f, want ~50", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 95 {
		t.Fatalf("reservoir p99 = %f, want >= 95", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile endpoints must stay exact min/max")
	}
}

// Quantile's domain is defined for all inputs: NaN in, NaN out; q outside
// [0,1] clamps to the exact extremes; the empty histogram reports 0.
func TestHistogramQuantileDomain(t *testing.T) {
	h := NewHistogram(4)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("empty histogram NaN quantile = %f, want 0", got)
	}
	for _, v := range []float64{5, 1, 3} {
		h.Record(v)
	}
	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %f, want NaN", got)
	}
	if got := h.Quantile(-0.5); got != 1 {
		t.Fatalf("Quantile(-0.5) = %f, want min 1", got)
	}
	if got := h.Quantile(2); got != 5 {
		t.Fatalf("Quantile(2) = %f, want max 5", got)
	}
	if got := h.Quantile(math.Inf(1)); got != 5 {
		t.Fatalf("Quantile(+Inf) = %f, want max 5", got)
	}
	if got := h.Quantile(math.Inf(-1)); got != 1 {
		t.Fatalf("Quantile(-Inf) = %f, want min 1", got)
	}
}

// Satellite regression: Snapshot must be safe against concurrent Record/Inc
// on the same registry (run under -race).
func TestSnapshotConcurrentWithRecording(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("ops").Inc()
				r.Gauge("depth").Set(int64(i))
				r.Histogram("lat").Record(float64(i % 100))
				if g == 0 && i%10 == 0 {
					r.Counter("extra" + string(rune('a'+i%26))).Inc()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if s.Counters["ops"] < 0 {
			t.Fatal("negative counter in snapshot")
		}
		if h, ok := s.Histograms["lat"]; ok && h.Count > 0 && (h.P50 < 0 || h.P99 > 99) {
			t.Fatalf("implausible snapshot histogram: %+v", h)
		}
	}
	close(stop)
	wg.Wait()
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.admitted").Add(42)
	r.Gauge("serve.queue_depth").Set(7)
	for i := 1; i <= 100; i++ {
		r.Histogram("serve.latency_ms").Record(float64(i))
	}
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE serve_admitted counter\nserve_admitted 42\n",
		"# TYPE serve_queue_depth gauge\nserve_queue_depth 7\n",
		"# TYPE serve_latency_ms summary\n",
		"serve_latency_ms{quantile=\"0.99\"}",
		"serve_latency_ms_sum 5050\n",
		"serve_latency_ms_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two scrapes of the same state render identically.
	var b2 strings.Builder
	if err := r.Snapshot().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("prometheus output is not deterministic")
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.latency_ms": "serve_latency_ms",
		"a-b c":            "a_b_c",
		"9lives":           "_9lives",
		"ok_name:x":        "ok_name:x",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("depth").Set(7)
	r.Histogram("lat").Record(1)
	r.Histogram("lat").Record(3)
	s := r.Snapshot()
	if s.Counters["reqs"] != 3 || s.Gauges["depth"] != 7 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := s.Histograms["lat"]; got.Count != 2 || got.Mean != 2 || got.Max != 3 {
		t.Fatalf("snapshot histogram = %+v", got)
	}
	// The snapshot is a copy: later recording must not change it.
	r.Counter("reqs").Inc()
	if s.Counters["reqs"] != 3 {
		t.Fatal("snapshot aliases live counters")
	}
}
