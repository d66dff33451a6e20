package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"hwstar"
	"hwstar/internal/compress"
)

// config is one run's settings. The flags set the first four; the rest
// keep the benchmark's fixed values except in the smoke test, which runs
// at toy scale.
type config struct {
	Seed    int64
	Seconds float64 // measuring time of one pass
	Trace   int     // 0: untraced windows only; 1: traced pass only; -1: both
	OutDir  string  // span file and durable store live here

	Clients   int // 0: the suite's rule, min(nproc, max_clients)
	SetupReps int // set-up is timed this many times; setup_s is the median
	ProbeOps  int // operations per probe loop, time permitting
}

// The pass is cut into a warm-up and one measured window (tracing off), or
// a warm-up, a reference window and a traced window (traced pass), as
// shares of config.Seconds.
//
// The timing metrics (ungated, see README.md) come from the quiet part of
// an untraced window. The host is a shared VM that slows the program by a
// quarter of a second to a few seconds at a time, and how much of a run
// that covers drifts from minute to minute; a statistic over the whole
// window drifts with it. So the window is cut after the fact into slices of
// sliceLen, the quietShare of them with the most correct responses are
// taken as the stretch in which the host left the program alone, and
// throughput and the latency percentiles are computed over those slices'
// responses only. The whole window's figures are printed beside them.
const (
	warmShare   = 0.10
	passShare   = 0.90 // the untraced window of a run without tracing
	refShare    = 0.45 // the untraced reference window of a traced pass
	tracedShare = 0.25 // its traced window
	sliceLen    = 270 * time.Millisecond
	quietShare  = 0.05

	probeShare    = 0.03 // time budget of one probe loop
	trace0Restart = 3    // restarts checked in an untraced run (the traced pass does spec.Restarts)
)

// metricValue is one reported number. note, when set, is printed beside it:
// the figure it was derived from or is to be read against.
type metricValue struct {
	value float64
	unit  string
	note  string
}

// result is everything one workload run reports.
type result struct {
	workload     string
	env          string
	attempted    int
	failed       int
	problems     []string
	metrics      map[string]metricValue
	samples      int // latency samples of the untraced reference window
	quietSamples int // those in its quiet slices, behind the timing metrics
	tracePath    string
	spans        []span
	blocks       blockCheck
}

// blockCheck carries the deterministic block-outcome identity the smoke
// test asserts: with one query per pass, pruned + fast-summed + decoded
// equals blocks-per-stripe x passes.
type blockCheck struct {
	pruned, fastSums, decoded, passes int64
	stripeBlocks                      int64
}

func (r *result) set(name string, v float64) {
	r.metrics[name] = metricValue{value: v, unit: unitOf(name)}
}

// setQuiet reports a metric of the quiet slices with the whole window's
// figure beside it.
func (r *result) setQuiet(name string, quiet, whole float64) {
	r.metrics[name] = metricValue{value: quiet, unit: unitOf(name), note: fmt.Sprintf("whole window %.4f", whole)}
}

func (r *result) absorb(w *window) {
	r.attempted += w.attempted
	r.failed += w.failed
	for _, p := range w.problems {
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, p)
		}
	}
}

// verified counts one answer checked outside a load window; problem is ""
// when it was right.
func (r *result) verified(what, problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, what+": "+problem)
		}
	}
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("hwperf: metric " + name + " is not declared in spec.go")
}

// counters is a snapshot of the product's own counters, summed over the
// shards of a router.
type counters struct {
	admitted, rejected, shed, retries, failed int64
	passes, pruned, fastSums, decoded         int64
	hedges, hedgeWins, failovers, partials    int64
	refused                                   int64
}

func (s *stack) counters() counters {
	var c counters
	add := func(h hwstar.ServerHealth) {
		c.admitted += h.Admitted
		c.rejected += h.Rejected
		c.shed += h.Shed + h.MemShed
		c.retries += h.Retries
		c.failed += h.Failed
		c.passes += h.VecPasses
		c.pruned += h.VecBlocksPruned
		c.fastSums += h.VecFastSums
		c.decoded += h.VecBlocksScanned
	}
	if s.router != nil {
		ch := s.router.ClusterHealth()
		for _, n := range ch.Nodes {
			add(n.Serve)
		}
		c.hedges, c.hedgeWins, c.failovers, c.partials = ch.Hedges, ch.HedgeWins, ch.Failovers, ch.Partials
	} else {
		add(s.server.Health())
	}
	reg := s.backend.Metrics().Counters()
	for _, name := range []string{"frontend.rate_limited", "frontend.quota_rejected", "frontend.unauthenticated", "frontend.invalid", "frontend.queries_failed"} {
		c.refused += reg[name]
	}
	return c
}

// runWorkload runs one workload in this process and returns its metrics.
func runWorkload(ctx context.Context, suite suiteSpec, spec workloadSpec, cfg config) (res *result, err error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	nClients := cfg.Clients
	if nClients == 0 {
		nClients = suite.clients()
	}
	nReaders := nClients
	if spec.Durable && nReaders > 1 {
		nReaders-- // the writer goroutine is the other caller
	}
	res = &result{workload: spec.Name, metrics: make(map[string]metricValue)}
	epoch := time.Now()

	// Set-up, timed: inputs, oracle, Register/encode, listener, sessions.
	var st *stack
	var clients []*client
	teardown := func() error {
		for _, c := range clients {
			c.close()
		}
		clients = nil
		if st == nil {
			return nil
		}
		cerr := st.close()
		st = nil
		return cerr
	}
	defer func() {
		if cerr := teardown(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	reps := cfg.SetupReps
	if cfg.Trace == 1 {
		reps = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	// Each repetition is timed between two runs of a fixed job of set-up's
	// own kind and scaled to the speed the host showed on them: set-up is
	// CPU-bound from end to end, and the host's speed drifts by a quarter
	// and more for minutes at a time (see hostRef).
	var setups, asMeasured []float64
	for rep := 0; rep < reps; rep++ {
		if err := teardown(); err != nil {
			return nil, err
		}
		var before, after float64
		if cfg.Trace != 1 {
			before = hostRef()
		}
		start := time.Now()
		if st, err = buildStack(ctx, suite, spec, cfg); err != nil {
			return nil, err
		}
		if clients, err = newClients(ctx, st.plain, st.tenant, nReaders); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		if cfg.Trace != 1 {
			after = hostRef()
			setups = append(setups, wall*hostRefQuiet/((before+after)/2))
			asMeasured = append(asMeasured, wall)
		}
	}
	res.env = fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s clients=%d machine=%s seed=%d seconds=%g",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), nClients, suite.Machine, cfg.Seed, cfg.Seconds)
	if spec.Durable {
		res.env += " store_fs=" + fsName(st.storeDir)
	}

	var writer *churnWriter
	if spec.Durable {
		writer = startWriter(ctx, st, epoch)
		defer func() {
			if writer != nil {
				_, _ = writer.halt() // error path only; the normal path halts below
			}
		}()
	}
	// peak_rss_mb is the serving peak: what set-up needed in passing (sort
	// buffers, the repetitions' garbage) is returned and forgotten first.
	debug.FreeOSMemory()
	resetPeakRSS()
	share := func(f float64) time.Duration { return time.Duration(f * cfg.Seconds * float64(time.Second)) }
	load := newLoadClients(clients, len(st.pool))

	warm := runWindow(ctx, epoch, load, st.pool, share(warmShare), nil)
	res.absorb(&warm)

	var ref window
	if cfg.Trace != 1 {
		ref = runWindow(ctx, epoch, load, st.pool, share(passShare), nil)
		res.absorb(&ref)
		res.endToEnd(&ref, quantile(sortedCopy(setups), 0.5), slices.Min(asMeasured), peakRSSMB())
	}

	if cfg.Trace != 0 {
		if cfg.Trace == 1 {
			ref = runWindow(ctx, epoch, load, st.pool, share(refShare), nil)
			res.absorb(&ref)
		}
		res.fromReference(&ref)
		if err := res.tracedPass(ctx, st, epoch, cfg, nReaders, share(tracedShare), ref.qps()); err != nil {
			return nil, err
		}
	}

	lastAcked := 0
	if writer != nil {
		lastAcked, err = writer.halt()
		w := writer
		writer = nil
		if err != nil {
			return nil, fmt.Errorf("hwperf: churn writer: %w", err)
		}
		if cfg.Trace != 0 {
			if err := res.storeMetrics(st, w, &ref); err != nil {
				return nil, err
			}
		}
	}

	if cfg.Trace != 0 {
		if err := st.runProbes(ctx, cfg.ProbeOps, share(probeShare), res); err != nil {
			return nil, err
		}
	}

	if spec.Durable {
		n := spec.Restarts
		if cfg.Trace == 0 && n > trace0Restart {
			n = trace0Restart
		}
		rs, err := st.restarts(ctx, epoch, n, lastAcked)
		if err != nil {
			return nil, err
		}
		res.attempted += rs.attempted
		res.failed += rs.failed
		res.problems = append(res.problems, rs.problems...)
		if cfg.Trace != 0 {
			res.set("recovery_ms", mean(rs.recoveryMs))
			res.set("store.open_ms_mean", mean(rs.openMs))
			res.set("store.recovery_bytes_validated", float64(rs.bytesValidated))
			res.set("store.recovery_fallbacks", float64(rs.fallbacks))
		}
	}

	if cfg.Trace != 0 {
		res.set("error_rate", float64(res.failed)/float64(res.attempted))
		// Every declared per-layer metric is printed on every workload; a
		// layer the workload does not exercise reads 0.
		for _, m := range perLayer {
			if _, ok := res.metrics[m.Name]; !ok {
				res.set(m.Name, 0)
			}
		}
	}
	return res, nil
}

// endToEnd reports the gated metrics of the untraced window.
func (r *result) endToEnd(w *window, setupS, quickestSetupS, peakRSSMB float64) {
	r.set("alloc_kb_per_query", float64(w.allocBytes)/1024/math.Max(float64(w.correct()), 1))
	r.set("peak_rss_mb", peakRSSMB)
	r.metrics["setup_s"] = metricValue{value: setupS, unit: unitOf("setup_s"), note: fmt.Sprintf("quickest as measured %.4f", quickestSetupS)}
}

// hostRefQuiet is how long hostRef takes on the sandbox this benchmark was
// written on when its neighbours are quiet. It only fixes the scale of
// setup_s, so that it reads as seconds there; two commits are compared on
// the same scale whatever the host.
const hostRefQuiet = 0.0450

// hostRef times a fixed job of set-up's own kind (fill, sort, prefix-sum
// over 256 Ki rows, as the oracle does) and returns the seconds it took.
// Set-up is timed against it because this host's speed on such code is not
// constant: measured over 48 runs in a quarter-hour, whenever hostRef took
// 12-19% longer than usual the set-ups beside it took 17-24% longer, and
// their ratio moved by 4-8%.
func hostRef() float64 {
	type row struct{ key, agg int64 }
	start := time.Now()
	rows := make([]row, 1<<18)
	x := uint64(88172645463325252)
	for i := range rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rows[i] = row{int64(x % 100000), int64(i)}
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.key, b.key) })
	prefix := make([]int64, len(rows)+1)
	for i, r := range rows {
		prefix[i+1] = prefix[i] + r.agg
	}
	if prefix[len(rows)] <= 0 {
		panic("hwperf: hostRef lost its rows") // keeps the job from being optimised away
	}
	return time.Since(start).Seconds()
}

// fromReference reports what an untraced window shows beyond the gated
// metrics: throughput and latency over its quiet slices, the diagnostic
// tail and the runtime's own counters.
func (r *result) fromReference(ref *window) {
	all := ref.latenciesMs()
	qps, lat := ref.quiet(sliceLen, quietShare)
	r.samples, r.quietSamples = len(all), len(lat)
	r.setQuiet("throughput_qps", qps, ref.qps())
	r.setQuiet("latency_p50_ms", quantile(lat, 0.50), quantile(all, 0.50))
	r.setQuiet("latency_p95_ms", quantile(lat, 0.95), quantile(all, 0.95))
	r.set("client.latency_p99_ms", quantile(all, 0.99))
	r.set("wire.request_bytes_per_query", float64(ref.reqBytes)/math.Max(float64(ref.attempted), 1))
	r.set("cpu_ms_per_query", ms(ref.cpu)/math.Max(float64(ref.correct()), 1))
	r.set("runtime.gc_cycles", float64(ref.gcCycles))
	r.set("runtime.gc_pause_ms_total", float64(ref.gcPauseNs)/1e6)
}

// tracedPass mounts the traced endpoint over the same backend, drives one
// window through it and turns the spans and counter deltas into per-layer
// metrics.
func (r *result) tracedPass(ctx context.Context, st *stack, epoch time.Time, cfg config, nReaders int, dur time.Duration, untracedQPS float64) error {
	tr := newTracer(epoch)
	ep, err := newEndpoint(st, tracedBackend{FrontendBackend: st.backend, t: tr}, tr.wrapHandler)
	if err != nil {
		return err
	}
	st.traced = ep
	clients, err := newClients(ctx, ep, st.tenant, nReaders)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	load := newLoadClients(clients, len(st.pool))

	// Goroutine high-water mark and live heap, sampled beside the window.
	var peak int
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	before := st.counters()
	w := runWindow(ctx, epoch, load, st.pool, dur, tr)
	after := st.counters()
	close(stop)
	sampler.Wait()
	r.absorb(&w)

	var ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.set("runtime.goroutines_peak", float64(peak))
	r.set("runtime.heap_live_mb", float64(ms1.HeapAlloc)/(1<<20))

	spans := tr.all()
	r.spans = spans
	if r.tracePath, err = writeTrace(cfg.OutDir, st.spec.Name, cfg.Seed, spans); err != nil {
		return err
	}
	self, backendNs, covered, total := selfTimes(spans)
	for k := range self {
		self[k] = sortedCopy(self[k])
	}
	r.set("client.self_ms_p50", quantile(self[spanClient], 0.5))
	r.set("wire.self_ms_p50", quantile(self[spanWire], 0.5))
	r.set("frontend.self_ms_p50", quantile(self[spanFrontend], 0.5))
	r.set("frontend.self_ms_p95", quantile(self[spanFrontend], 0.95))
	r.set("shard.submit_ms_p50", quantile(self[spanBackend], 0.5))
	r.set("shard.submit_ms_p95", quantile(self[spanBackend], 0.95))
	if total > 0 {
		r.set("trace.coverage_pct", 100*covered/total)
	}
	if untracedQPS > 0 {
		r.set("trace.overhead_pct", 100*(untracedQPS-w.qps())/untracedQPS)
	}

	n := math.Max(float64(w.correct()), 1)
	r.set("hw.sim_mcycles_per_query", w.simCycles/1e6/n)
	if w.simCycles > 0 {
		r.set("hw.wall_ns_per_sim_cycle", backendNs/w.simCycles)
	}
	r.set("serve.batch_size_mean", float64(w.batchSum)/n)

	d := func(a, b int64) float64 { return float64(a - b) }
	dispatches := d(after.admitted, before.admitted)
	r.set("shard.dispatches_per_query", dispatches/n)
	if dispatches > 0 {
		r.set("shard.hedge_rate", d(after.hedges, before.hedges)/dispatches)
	}
	if hedges := d(after.hedges, before.hedges); hedges > 0 {
		r.set("shard.hedge_win_rate", d(after.hedgeWins, before.hedgeWins)/hedges)
	}
	r.set("serve.passes_per_query", d(after.passes, before.passes)/n)
	pruned, fast, decoded := d(after.pruned, before.pruned), d(after.fastSums, before.fastSums), d(after.decoded, before.decoded)
	r.set("compress.blocks_pruned_per_query", pruned/n)
	r.set("compress.blocks_fast_summed_per_query", fast/n)
	r.set("compress.blocks_decoded_per_query", decoded/n)
	if visits := pruned + fast + decoded; visits > 0 {
		r.set("compress.decode_fraction", decoded/visits)
	}
	r.blocks = blockCheck{
		pruned: after.pruned - before.pruned, fastSums: after.fastSums - before.fastSums,
		decoded: after.decoded - before.decoded, passes: after.passes - before.passes,
	}
	if st.spec.Table != "" {
		rows, err := st.stripeRows()
		if err != nil {
			return err
		}
		r.blocks.stripeBlocks = int64(rows+compress.BlockValues-1) / compress.BlockValues
	}

	// Failure counters are totals since boot: a non-zero anywhere in the
	// run should show, not only one inside the traced window.
	r.set("shard.failovers", float64(after.failovers))
	r.set("shard.partials", float64(after.partials))
	r.set("serve.rejected", float64(after.rejected))
	r.set("serve.shed", float64(after.shed))
	r.set("serve.retries", float64(after.retries))
	r.set("serve.failed", float64(after.failed))
	r.set("frontend.refused", float64(after.refused))
	r.set("serve.register_ms", st.registerMs)
	return nil
}

// storeMetrics reports the write side of durable_churn from the writer's
// cycle log: checkpoint throughput and shape, the store's footprint, and
// how much the readers' tail grows while a checkpoint is in flight.
func (r *result) storeMetrics(st *stack, w *churnWriter, ref *window) error {
	cycles := w.acked()
	if len(cycles) == 0 {
		return fmt.Errorf("hwperf: %s: the writer acknowledged no checkpoint in %d requests' time; lengthen -seconds", st.spec.Name, r.attempted)
	}
	userBytes := float64(st.spec.Rows) * float64(len(st.versions[0])) * 8
	var wallNs, maxMs, sumMs, bytes, segments float64
	for _, c := range cycles {
		wallNs += float64(c.ckptEnd - c.regStart)
		ckptMs := float64(c.stats.WallNanos) / 1e6
		sumMs += ckptMs
		maxMs = math.Max(maxMs, ckptMs)
		bytes += float64(c.stats.Bytes)
		segments += float64(c.stats.Segments)
	}
	n := float64(len(cycles))
	r.set("checkpoint_mb_per_s", n*userBytes/1e6/(wallNs/1e9))
	r.set("store.checkpoint_ms_mean", sumMs/n)
	r.set("store.checkpoint_ms_max", maxMs)
	r.set("store.checkpoint_bytes", bytes/n)
	r.set("store.segments_per_checkpoint", segments/n)

	stored, err := dirBytes(st.storeDir + "/live")
	if err != nil {
		return err
	}
	r.set("stored_bytes_per_user_byte", float64(stored)/userBytes)

	// Reader samples of the reference window, split by whether a
	// checkpoint (not the Register before it) overlapped them.
	var inside, outside []float64
	for _, s := range ref.samples {
		if !s.ok {
			continue
		}
		lat := float64(s.end-s.start) / 1e6
		overlapped := false
		for _, c := range cycles {
			if s.start < c.ckptEnd && s.end > c.regEnd {
				overlapped = true
				break
			}
		}
		if overlapped {
			inside = append(inside, lat)
		} else {
			outside = append(outside, lat)
		}
	}
	if len(inside) > 0 && len(outside) > 0 {
		r.set("store.read_stall_ms_p95", quantile(sortedCopy(inside), 0.95)-quantile(sortedCopy(outside), 0.95))
	}
	return nil
}

// resetPeakRSS sets the kernel's RSS high-water mark back to the current
// RSS (Linux: "5" to /proc/self/clear_refs). Where that is not possible the
// mark keeps the process's lifetime peak, set-up included.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is getrusage's max RSS since the last reset, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}
