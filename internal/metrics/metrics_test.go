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
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
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
	// Nearest rank: the 3rd sample, 3, read as the middle of [3, 3.25).
	if got := h.Quantile(0.5); got != 3.125 {
		t.Fatalf("median = %f, want 3.125", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %f, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("q1 = %f, want 5", got)
	}
}

func TestHistogramRecordAfterQuantile(t *testing.T) {
	// A quantile query leaves later records to update the extremes.
	h := NewHistogram()
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
		h := NewHistogram()
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

// Property: against the sorted samples, Quantile(q) is within 1/16 of the
// nearest-rank sample s[ceil(q*n)-1] when that sample lies in the bucket
// range, monotone in q, and within [Min, Max], which are exact. Samples are
// log-uniform over 1e-5..1e12, with zeros, negatives, and values below and
// above the bucket range mixed in.
func TestHistogramQuantileWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		h := NewHistogram()
		s := make([]float64, n)
		var sum float64
		for i := range s {
			v := math.Pow(10, -5+17*rng.Float64())
			switch rng.Intn(20) {
			case 0:
				v = 0
			case 1:
				v = -v
			case 2:
				v = lowest * rng.Float64()
			case 3:
				v = highest * (1 + rng.Float64())
			}
			s[i] = v
			sum += v
			h.Record(v)
		}
		sort.Float64s(s)
		if h.Count() != n || h.Sum() != sum || h.Min() != s[0] || h.Max() != s[n-1] {
			t.Fatalf("trial %d: count/sum/min/max = %d/%g/%g/%g, want %d/%g/%g/%g",
				trial, h.Count(), h.Sum(), h.Min(), h.Max(), n, sum, s[0], s[n-1])
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1; q += 0.005 {
			got := h.Quantile(q)
			want := s[max(1, int(math.Ceil(q*float64(n))))-1]
			if want >= lowest && want < highest && math.Abs(got-want) > want/16 {
				t.Fatalf("trial %d: Quantile(%g) = %g, nearest-rank sample %g", trial, q, got, want)
			}
			if got < prev || got < s[0] || got > s[n-1] {
				t.Fatalf("trial %d: Quantile(%g) = %g after %g, outside [%g, %g] or falling", trial, q, got, prev, s[0], s[n-1])
			}
			prev = got
		}
	}
}

// Quantiles are exact when every sample is equal, in and out of the range.
func TestHistogramEqualSamplesExact(t *testing.T) {
	for _, v := range []float64{0, -7, 3, 1e-9, 1e15} {
		h := NewHistogram()
		for i := 0; i < 10; i++ {
			h.Record(v)
		}
		for _, q := range []float64{0.01, 0.5, 0.99} {
			if got := h.Quantile(q); got != v {
				t.Fatalf("all samples %g: Quantile(%g) = %g", v, q, got)
			}
		}
	}
}

func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram()
	v := 0.0
	if allocs := testing.AllocsPerRun(1000, func() { v += 1.5; h.Record(v) }); allocs != 0 {
		t.Fatalf("Record allocates %v objects, want 0", allocs)
	}
}

// Eight recorders of integers: Count, Sum, Min and Max are exact however
// their adds interleave (run under -race).
func TestHistogramConcurrentRecorders(t *testing.T) {
	const workers, each = 8, 5000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(float64(w*each + i - 1000))
			}
		}(w)
	}
	wg.Wait()
	const n = workers * each
	if h.Count() != n || h.Min() != -1000 || h.Max() != n-1001 {
		t.Fatalf("count/min/max = %d/%g/%g, want %d/%d/%d", h.Count(), h.Min(), h.Max(), n, -1000, n-1001)
	}
	if want := float64(n*(n-1)/2 - n*1000); h.Sum() != want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	if got, want := h.Quantile(0.5), float64(n/2-1001); math.Abs(got-want) > want/16 {
		t.Fatalf("median = %g, nearest-rank sample %g", got, want)
	}
}

// Merge gives what recording both histograms' samples into one gives, and
// an empty histogram merges as nothing.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 3000; i++ {
		v := rng.ExpFloat64() * 100
		if i%3 == 0 {
			b.Record(v - 50)
			both.Record(v - 50)
		} else {
			a.Record(v)
			both.Record(v)
		}
	}
	var merged Histogram
	merged.Merge(NewHistogram())
	if merged.Count() != 0 || merged.Min() != 0 || merged.Max() != 0 {
		t.Fatalf("empty merge = %+v", merged.Stats())
	}
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(NewHistogram())
	if merged.Count() != both.Count() || merged.Min() != both.Min() || merged.Max() != both.Max() ||
		math.Abs(merged.Sum()-both.Sum()) > 1e-9*math.Abs(both.Sum()) {
		t.Fatalf("merged %+v, recorded together %+v", merged.Stats(), both.Stats())
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if got, want := merged.Quantile(q), both.Quantile(q); got != want {
			t.Fatalf("merged Quantile(%g) = %g, recorded together %g", q, got, want)
		}
	}
}

// Halve removes half of every bucket, rounding up, and the same from the
// count: the quantiles of a doubled sample set come back.
func TestHistogramHalve(t *testing.T) {
	h, twice := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
		twice.Record(float64(i))
		twice.Record(float64(i))
	}
	if removed := twice.Halve(); removed != 100 || twice.Count() != 100 {
		t.Fatalf("Halve removed %d, leaving %d, want 100 and 100", removed, twice.Count())
	}
	for q := 0.01; q < 1; q += 0.01 {
		if got, want := twice.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("halved Quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

// BenchmarkHistogramRecord records latency-like samples (exponential, mean
// 1 ms, cycled from a seeded table so the loop does no random draws), from one
// goroutine and from GOMAXPROCS goroutines sharing the histogram.
func BenchmarkHistogramRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var vals [1024]float64
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	b.Run("serial", func(b *testing.B) {
		h := NewHistogram()
		i := 0
		for b.Loop() {
			h.Record(vals[i%len(vals)])
			i++
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := NewHistogram()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				h.Record(vals[i%len(vals)])
				i++
			}
		})
	})
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
	h := NewHistogram()
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
	if empty := NewHistogram().Stats(); empty.Count != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

// Regression for the unbounded-growth leak: 10M samples must stay under a
// hard memory ceiling, while count/sum/min/max stay exact.
func TestHistogramBoundedUnderSustainedLoad(t *testing.T) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	h := NewHistogram()
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
	if h.Min() != 0 || h.Max() != 999 {
		t.Fatalf("min/max = %f/%f, want 0/999", h.Min(), h.Max())
	}
	if got, want := h.Sum(), float64(n/1000)*(999*1000/2); got != want {
		t.Fatalf("sum = %f, want %f", got, want)
	}
	// 10M float64 samples would be 80MB; the buckets are 4KB. Allow generous
	// slack for allocator noise.
	const ceiling = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Fatalf("heap grew %d bytes recording 10M samples, ceiling %d", grew, ceiling)
	}
}

// Quantiles over many samples are read off the buckets; for a uniform input
// the median must land near the middle.
func TestHistogramReservoirQuantileEstimate(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	const n = 200_000
	for i := 0; i < n; i++ {
		h.Record(rng.Float64() * 100)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if p50 := h.Quantile(0.5); p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %f, want ~50", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 95 {
		t.Fatalf("p99 = %f, want >= 95", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile endpoints must stay exact min/max")
	}
}

// Quantile's domain is defined for all inputs: NaN in, NaN out; q outside
// [0,1] clamps to the exact extremes; the empty histogram reports 0.
func TestHistogramQuantileDomain(t *testing.T) {
	h := NewHistogram()
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
