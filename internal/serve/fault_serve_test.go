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
// of two injected transient failures, which the scheduler absorbs by
// re-running the morsel twice. The client sees a correct answer; the retry
// counter sees the two morsel re-runs.
func TestRetryRecoversTransient(t *testing.T) {
	cols, expect := testRelation(5000)
	s := newServer(t, Options{
		QueueDepth: 8, MaxBatch: 1,
		Faults: fault.New(fault.Config{Seed: 3, TransientProb: 1, MaxFaults: 2}),
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
	if h.Retries != 2 || h.Completed != 1 {
		t.Fatalf("retries %d, completed %d; want 2 and 1", h.Retries, h.Completed)
	}
	if h.Faults["transient"] != 2 {
		t.Fatalf("fault log disagrees: %v", h.Faults)
	}
}

// TestRetryExhausted: a morsel that fails on every draw exhausts the
// scheduler's re-run budget, and the typed transient error reaches the
// client after exactly that many re-runs.
func TestRetryExhausted(t *testing.T) {
	cols, _ := testRelation(1000)
	s := newServer(t, Options{
		QueueDepth: 8, MaxBatch: 1,
		Faults: fault.New(fault.Config{Seed: 3, TransientProb: 1}),
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
	if h := s.Health(); h.Retries != 2 || h.Failed != 1 || h.Faults["transient"] != 3 {
		t.Fatalf("health = %+v, want 2 retries, 3 transients, then failure", h)
	}
}

// TestTransientScansMatchShared is the differential check of the morsel
// re-run: over 24 fault seeds, a cohort of scans under a 5% per-morsel
// transient rate — each pass eight morsels — must equal scan.Shared on the
// first submission, with no client resubmitting, so a re-run morsel is
// folded exactly once.
func TestTransientScansMatchShared(t *testing.T) {
	cols, _ := testRelation(8 * vecMorselRows)
	qs := []scan.Query{
		scanQuery(0, 10000), scanQuery(500, 3500), scanQuery(2000, 2000), scanQuery(20000, 30000),
		{FilterCol: 1, Lo: 100, Hi: 300, AggCol: 0},
	}
	rel, err := scan.NewRelation(cols)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.Shared(rel, qs, scan.SharedOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Op: OpScan, Table: "t", Query: q}
	}
	var retries int64
	for seed := int64(1); seed <= 24; seed++ {
		s := newServer(t, Options{
			QueueDepth: len(qs), MaxBatch: len(qs), Workers: 8, SchedBlockSize: 2,
			Faults: fault.New(fault.Config{Seed: seed, TransientProb: 0.05}),
		})
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
		for i, r := range cohort(t, s, reqs) {
			if r.Sum != want[i] {
				t.Errorf("seed %d query %d %+v: sum %d, scan.Shared says %d", seed, i, qs[i], r.Sum, want[i])
			}
		}
		s.Close()
		h := s.Health()
		if h.Failed != 0 || h.Completed != int64(len(qs)) {
			t.Fatalf("seed %d: %d failed, %d completed of %d", seed, h.Failed, h.Completed, len(qs))
		}
		retries += h.Retries
	}
	if retries == 0 {
		t.Fatal("no morsel re-ran: the check passed vacuously")
	}
}

// TestPanicIsolationInServer recovers an injected worker panic inside the
// scheduler — the client never sees it, and the health counters do.
func TestPanicIsolationInServer(t *testing.T) {
	cols, expect := testRelation(5000)
	s := newServer(t, Options{
		QueueDepth: 8, MaxBatch: 1,
		Faults: fault.New(fault.Config{Seed: 3, PanicProb: 1, MaxFaults: 1}),
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
		Faults:         inj,
		SchedBlockSize: 4,
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
				!errors.Is(r.err, errs.ErrOverloaded) {
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

// TestNoGoroutineLeaks runs a faulty workload including rejections, deadlines,
// and retries, closes the server, and checks the goroutine count settles
// back to where it started.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		cols, _ := testRelation(2000)
		s := newServer(t, Options{
			Workers: 4, OpWorkers: 4, QueueDepth: 4, MaxBatch: 2,
			Faults: fault.New(fault.Config{Seed: int64(round), TransientProb: 0.2}),
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
