package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/scan"
	"hwstar/internal/workload"
)

// TestRetryRecoversTransient stages "fails twice, then recovers": a budget
// of two injected transient failures against a retry budget of three. The
// client sees a correct answer; the retry counters see the two attempts.
func TestRetryRecoversTransient(t *testing.T) {
	cols, expect := testRelation(5000)
	s := newServer(t, Options{
		QueueDepth: 8, MaxBatch: 1,
		Faults:       fault.New(fault.Config{Seed: 3, TransientProb: 1, MaxFaults: 2}),
		MaxRetries:   3,
		RetryBackoff: 10 * time.Microsecond,
	})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(context.Background(), Request{
		Op: OpScan, Table: "events",
		Query: scanQuery(0, 5000),
	})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if want := expect(0, 5000); resp.Sum != want {
		t.Fatalf("sum = %d, want %d", resp.Sum, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Retries != 2 {
		t.Fatalf("retries = %d, want 2", h.Retries)
	}
	if h.RetryExhausted != 0 {
		t.Fatalf("retry budget reported exhausted: %+v", h)
	}
	if h.Faults["transient"] != 2 {
		t.Fatalf("fault log disagrees: %v", h.Faults)
	}
	if bh := s.Metrics().Histogram("serve.retry_backoff_ms"); bh.Count() != 2 {
		t.Fatalf("backoff histogram has %d samples, want 2", bh.Count())
	}
}

// TestRetryExhausted caps retries below the injected failure budget: the
// typed transient error must reach the client.
func TestRetryExhausted(t *testing.T) {
	cols, _ := testRelation(1000)
	s := newServer(t, Options{
		QueueDepth: 8, MaxBatch: 1,
		Faults:       fault.New(fault.Config{Seed: 3, TransientProb: 1}),
		MaxRetries:   2,
		RetryBackoff: 10 * time.Microsecond,
	})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "events", Query: scanQuery(0, 1000)})
	if !errors.Is(err, errs.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.RetryExhausted != 1 || h.Retries != 2 {
		t.Fatalf("health = %+v, want 2 retries then exhaustion", h)
	}
}

// TestPanicIsolationInServer recovers an injected worker panic inside the
// scheduler — the client never sees it, and the health counters do.
func TestPanicIsolationInServer(t *testing.T) {
	cols, expect := testRelation(5000)
	s := newServer(t, Options{
		QueueDepth: 8, MaxBatch: 1,
		Faults:        fault.New(fault.Config{Seed: 3, PanicProb: 1, MaxFaults: 1}),
		IsolatePanics: true,
	})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "events", Query: scanQuery(0, 5000)})
	if err != nil {
		t.Fatalf("panic not isolated: %v", err)
	}
	if want := expect(0, 5000); resp.Sum != want {
		t.Fatalf("sum = %d, want %d", resp.Sum, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.PanicsRecovered != 1 || h.Redispatched == 0 {
		t.Fatalf("health = %+v, want 1 recovered panic with re-dispatch", h)
	}
}

// TestBreakerTripsShedsAndRecovers walks the full breaker cycle: two
// injected failures trip it, a non-scan request is shed with ErrDegraded, a
// scan still runs on the degraded worker budget (Workers/4), and its success
// closes the breaker again.
func TestBreakerTripsShedsAndRecovers(t *testing.T) {
	cols, expect := testRelation(5000)
	s := newServer(t, Options{
		Workers: 8, OpWorkers: 4, QueueDepth: 8, MaxBatch: 1,
		Faults:           fault.New(fault.Config{Seed: 3, TransientProb: 1, MaxFaults: 2}),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // recovery must come from the degraded scan, not time
	})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	keys := workload.UniformInts(81, 4096, 64)
	vals := workload.UniformInts(82, 4096, 100)
	group := Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyRadix}

	// Two consecutive failures (MaxRetries=0: nothing absorbs them).
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), group); !errors.Is(err, errs.ErrTransient) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	h := s.Health()
	if h.State != "degraded" || h.BreakerTrips != 1 || h.ConsecutiveFailures != 2 {
		t.Fatalf("breaker did not trip: %+v", h)
	}

	// Open breaker: non-scan work sheds...
	if _, err := s.Submit(context.Background(), group); !errors.Is(err, errs.ErrDegraded) {
		t.Fatalf("open breaker did not shed: %v", err)
	}
	// ...but a scan still runs, on the reduced budget (the fault budget is
	// spent, so it succeeds) — and its success closes the breaker. The pass
	// is held after it has taken its core tokens to read the budget off the
	// pool: Workers/4 = 2 of 8.
	freeCores := s.coresFree.Value
	// The dispatcher steps the failed group-sums' releases after they answer.
	waitFor(t, func() bool { return freeCores() == 8 }, "failed operations never released their cores")
	hold := make(chan struct{})
	s.testHold = hold
	type scanOut struct {
		resp Response
		err  error
	}
	scanned := make(chan scanOut, 1)
	go func() {
		resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "events", Query: scanQuery(0, 5000)})
		scanned <- scanOut{resp, err}
	}()
	waitFor(t, func() bool { return freeCores() < 8 }, "degraded scan never took its cores")
	if free := freeCores(); free != 6 {
		t.Fatalf("degraded scan holds %d of 8 cores, want Workers/4 = 2", 8-free)
	}
	close(hold)
	out := <-scanned
	resp, err := out.resp, out.err
	if err != nil {
		t.Fatalf("degraded scan failed: %v", err)
	}
	if want := expect(0, 5000); resp.Sum != want {
		t.Fatalf("degraded scan sum = %d, want %d", resp.Sum, want)
	}
	h = s.Health()
	if h.DegradedScans == 0 {
		t.Fatalf("scan did not run degraded: %+v", h)
	}
	if h.State != "ok" {
		t.Fatalf("success did not close the breaker: %+v", h)
	}
	// Closed again: non-scan work flows.
	if _, err := s.Submit(context.Background(), group); err != nil {
		t.Fatalf("recovered breaker still shedding: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Shed != 1 {
		t.Fatalf("shed = %d, want 1", h.Shed)
	}
}

// TestBreakerHalfOpenProbe trips the breaker and waits out the cooldown: the
// next non-scan request is admitted as a half-open probe and, succeeding,
// closes the breaker.
func TestBreakerHalfOpenProbe(t *testing.T) {
	s := newServer(t, Options{
		Workers: 8, OpWorkers: 4, QueueDepth: 8,
		Faults:           fault.New(fault.Config{Seed: 3, TransientProb: 1, MaxFaults: 2}),
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
	})
	keys := workload.UniformInts(83, 4096, 64)
	vals := workload.UniformInts(84, 4096, 100)
	group := Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyRadix}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), group); !errors.Is(err, errs.ErrTransient) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if _, err := s.Submit(context.Background(), group); !errors.Is(err, errs.ErrDegraded) {
		t.Fatalf("open breaker did not shed: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Submit(context.Background(), group); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if h := s.Health(); h.State != "ok" {
		t.Fatalf("probe success did not close the breaker: %+v", h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestDeadline: a request bounded by its caller's context returns the
// deadline error while the pipeline is pinned, and is counted.
func TestRequestDeadline(t *testing.T) {
	s := newServer(t, Options{Workers: 4, OpWorkers: 4, QueueDepth: 8})
	hold := make(chan struct{})
	s.testHold = hold
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_, err := s.Submit(ctx, Request{
			Op: OpGroupSum, Keys: []int64{1, 2}, Vals: []int64{3, 4}, Strategy: agg.StrategyGlobal,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
	close(hold)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", h.DeadlineExceeded)
	}
}

// scanQuery is shorthand for the range-sum the tests use.
func scanQuery(lo, hi int64) scan.Query {
	return scan.Query{FilterCol: 0, Lo: lo, Hi: hi, AggCol: 1}
}

// TestChaosMix is the race-enabled chaos test: a concurrent mixed workload
// under seeded panics, stragglers, and transient failures. Every admitted
// query must complete with the correct result or fail with a typed error —
// no hangs, no unrecovered panics — and the fault log must prove each armed
// class actually fired.
func TestChaosMix(t *testing.T) {
	const clients = 48
	cols, expect := testRelation(20000)
	inj := fault.New(fault.Config{
		Seed:          11,
		PanicProb:     0.02,
		TransientProb: 0.02,
		StragglerProb: 0.15,
		StragglerSkew: 8,
	})
	s := newServer(t, Options{
		Workers: 8, OpWorkers: 4, QueueDepth: clients, MaxBatch: 4,
		Faults:             inj,
		MaxRetries:         4,
		RetryBackoff:       10 * time.Microsecond,
		IsolatePanics:      true,
		StragglerThreshold: 3,
		SchedBlockSize:     4,
	})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	keys := workload.UniformInts(85, 8192, 128)
	vals := workload.UniformInts(86, 8192, 100)
	var wantGroups map[int64]int64
	{
		wantGroups = make(map[int64]int64)
		for i, k := range keys {
			wantGroups[k] += vals[i]
		}
	}

	type result struct {
		scan bool
		lo   int64
		resp Response
		err  error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c%3 == 2 {
				resp, err := s.Submit(context.Background(), Request{
					Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyRadix,
				})
				results[c] = result{resp: resp, err: err}
				return
			}
			lo := int64(c * 100)
			resp, err := s.Submit(context.Background(), Request{
				Op: OpScan, Table: "events", Query: scanQuery(lo, lo+3000),
			})
			results[c] = result{scan: true, lo: lo, resp: resp, err: err}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	completed := 0
	for c, r := range results {
		if r.err != nil {
			// Failures must be typed — anything else is an escape.
			if !errors.Is(r.err, errs.ErrTransient) && !errors.Is(r.err, errs.ErrWorkerPanic) &&
				!errors.Is(r.err, errs.ErrDegraded) && !errors.Is(r.err, errs.ErrOverloaded) {
				t.Fatalf("client %d: untyped failure: %v", c, r.err)
			}
			continue
		}
		completed++
		if r.scan {
			if want := expect(r.lo, r.lo+3000); r.resp.Sum != want {
				t.Fatalf("client %d: scan sum %d, want %d", c, r.resp.Sum, want)
			}
		} else {
			for k, want := range wantGroups {
				if r.resp.Groups[k] != want {
					t.Fatalf("client %d: group %d = %d, want %d", c, k, r.resp.Groups[k], want)
				}
			}
		}
	}
	if completed == 0 {
		t.Fatal("chaos completed nothing")
	}
	counts := inj.Counts()
	for _, class := range []fault.Class{fault.ClassPanic, fault.ClassTransient, fault.ClassStraggler} {
		if counts[class] == 0 {
			t.Fatalf("fault class %q never fired: %v", class, counts)
		}
	}
	h := s.Health()
	if h.Retries == 0 && h.PanicsRecovered == 0 && h.StragglersRetired == 0 {
		t.Fatalf("resilience machinery never engaged: %+v", h)
	}
}

// TestNoGoroutineLeaks runs a faulty workload including sheds, deadlines,
// and retries, closes the server, and checks the goroutine count settles
// back to where it started.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		cols, _ := testRelation(2000)
		s := newServer(t, Options{
			Workers: 4, OpWorkers: 4, QueueDepth: 4, MaxBatch: 2,
			Faults:           fault.New(fault.Config{Seed: int64(round), TransientProb: 0.2}),
			MaxRetries:       2,
			RetryBackoff:     10 * time.Microsecond,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Millisecond,
			IsolatePanics:    true,
		})
		if err := s.Register("events", cols); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 16; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				if c%2 == 0 {
					s.Submit(ctx, Request{Op: OpScan, Table: "events", Query: scanQuery(0, 2000)})
				} else {
					s.Submit(ctx, Request{
						Op: OpGroupSum, Keys: []int64{1, 2, 3}, Vals: []int64{4, 5, 6}, Strategy: agg.StrategyRadix,
					})
				}
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Give exiting goroutines a moment to unwind before counting.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
