package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/errs"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/scan"
	"hwstar/internal/workload"
)

// testRelation returns deterministic two-column data and the serial answer
// to a range query over it.
func testRelation(rows int) ([][]int64, func(lo, hi int64) int64) {
	cols := [][]int64{
		workload.UniformInts(71, rows, 10000),
		workload.UniformInts(72, rows, 500),
	}
	expect := func(lo, hi int64) int64 {
		var sum int64
		for i, v := range cols[0] {
			if v >= lo && v <= hi {
				sum += cols[1][i]
			}
		}
		return sum
	}
	return cols, expect
}

func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(hw.Server2S(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cohort submits reqs (scans of one table, on a server whose MaxBatch is at
// least len(reqs)) concurrently and returns their responses in order, having
// made them share one pass by the server's own rule: it holds every core, as
// a running pass would, until the dispatcher has taken the whole cohort, then
// lets go. The hold goes through the dispatcher's own event path: a release of
// -Workers, stepped before any arrival, and later one of +Workers. Any failed
// request fails the test.
func cohort(t *testing.T, s *Server, reqs []Request) []Response {
	t.Helper()
	s.released <- event{kind: evRelease, n: -s.opts.Workers}
	dequeued := s.reg.Histogram("serve.queue_wait_ms")
	want := dequeued.Count() + len(reqs)
	sub := newSubmitter(s, len(reqs))
	for _, req := range reqs {
		sub.submit(req)
	}
	waitFor(t, func() bool { return dequeued.Count() == want }, "the dispatcher never took the whole cohort")
	s.released <- event{kind: evRelease, n: s.opts.Workers}
	sub.wg.Wait()
	for i, err := range sub.errs {
		if err != nil {
			t.Errorf("cohort member %d %+v: %v", i, reqs[i].Query, err)
		}
	}
	return sub.resps
}

// scanOf is one range-filter scan request against table.
func scanOf(table string, lo, hi int64) Request {
	return Request{Op: OpScan, Table: table, Query: scanQuery(lo, hi)}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); !errors.Is(err, errs.ErrNilMachine) {
		t.Fatalf("nil machine: %v", err)
	}
	if _, err := New(hw.Laptop(), Options{Workers: 99}); !errors.Is(err, errs.ErrWorkersOutOfRange) {
		t.Fatalf("worker range: %v", err)
	}
	if _, err := New(hw.Laptop(), Options{Workers: 2, OpWorkers: 4}); !errors.Is(err, errs.ErrWorkersOutOfRange) {
		t.Fatalf("op workers beyond budget: %v", err)
	}
}

// TestScanBatching drives 64 concurrent scan clients into one shared pass:
// every client gets its own correct sum, and all of them report the same
// shared batch.
func TestScanBatching(t *testing.T) {
	const clients = 64
	cols, expect := testRelation(20000)
	s := newServer(t, Options{QueueDepth: clients, MaxBatch: clients})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}

	los := workload.UniformInts(73, clients, 9000)
	reqs := make([]Request, clients)
	for i := range reqs {
		reqs[i] = scanOf("events", los[i], los[i]+800)
	}
	resps := cohort(t, s, reqs)

	for i := 0; i < clients; i++ {
		if want := expect(los[i], los[i]+800); resps[i].Sum != want {
			t.Fatalf("client %d: sum %d, want %d", i, resps[i].Sum, want)
		}
		if resps[i].BatchSize != clients {
			t.Fatalf("client %d: batch size %d, want %d", i, resps[i].BatchSize, clients)
		}
		if resps[i].SimCycles <= 0 {
			t.Fatalf("client %d: no modeled cost", i)
		}
	}
	ctrs := s.Metrics().Counters()
	if ctrs["serve.admitted"] != clients || ctrs["serve.completed"] != clients || ctrs["serve.rejected"] != 0 {
		t.Fatalf("counters: %v", ctrs)
	}
	if bs := s.Metrics().Histogram("serve.batch_size"); bs.Count() != 1 || bs.Max() != clients {
		t.Fatalf("batch size histogram: %s", bs.Summary())
	}
	if bw := s.Metrics().Histogram("serve.batch_wait_ms"); bw.Count() != clients {
		t.Fatalf("batch_wait_ms recorded %d waits, want one per member (%d)", bw.Count(), clients)
	}
}

// TestBatchingAmortizesCycles is the acceptance check: with 64 concurrent
// scan-shaped clients, shared-scan batching must yield lower modeled cycles
// per query than per-query execution of the same requests.
func TestBatchingAmortizesCycles(t *testing.T) {
	const clients = 64
	cols, _ := testRelation(50000)
	los := workload.UniformInts(74, clients, 9000)

	reqs := make([]Request, clients)
	for i := range reqs {
		reqs[i] = scanOf("events", los[i], los[i]+800)
	}
	run := func(maxBatch int) float64 {
		s := newServer(t, Options{QueueDepth: clients, MaxBatch: maxBatch})
		defer s.Close()
		if err := s.Register("events", cols); err != nil {
			t.Fatal(err)
		}
		var resps []Response
		if maxBatch >= clients {
			resps = cohort(t, s, reqs)
		} else {
			for _, req := range reqs { // every arrival fills its batch
				resp, err := s.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				resps = append(resps, resp)
			}
		}
		var total float64
		for _, r := range resps {
			total += r.SimCycles
		}
		return total / clients
	}

	// MaxBatch 1 degenerates the server to per-query execution; the full
	// batch must amortize the pass across all clients.
	perQuery := run(1)
	batched := run(clients)
	if batched >= perQuery {
		t.Fatalf("batched %.0f cycles/query should beat per-query %.0f", batched, perQuery)
	}
	// testRelation's filter column is uniform, the block-major pass's worst
	// case: no block prunes, so the batch shares only the decode and every
	// query still pays its own filter over every block (3.6x as modeled).
	if perQuery/batched < 3 {
		t.Fatalf("expected ≥3x amortization at 64 clients, got %.1fx", perQuery/batched)
	}
}

// TestOverloadRejects pins the execution pipeline and floods the intake: the
// bounded queue must reject with ErrOverloaded rather than buffer without
// bound, and every admitted request must still complete after the stall.
func TestOverloadRejects(t *testing.T) {
	const submissions = 7
	s := newServer(t, Options{Workers: 4, OpWorkers: 4, QueueDepth: 2})
	hold := make(chan struct{})
	s.testHold = hold
	keys := workload.UniformInts(75, 4096, 64)
	vals := workload.UniformInts(76, 4096, 100)

	// With executors pinned, the server can absorb at most: 1 executing +
	// 1 in the dispatcher's hand + QueueDepth queued = 4 requests. The
	// remaining ≥3 of 7 must be rejected no matter how the goroutines
	// interleave.
	var wg sync.WaitGroup
	outcomes := make([]error, submissions)
	for i := 0; i < submissions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, outcomes[i] = s.Submit(context.Background(), Request{
				Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyRadix,
			})
		}()
		// Give each submission a moment to settle so admitted ones land
		// before the queue-full verdict of later ones.
		time.Sleep(2 * time.Millisecond)
	}
	close(hold)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var rejected, completed int
	for i, err := range outcomes {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, errs.ErrOverloaded):
			rejected++
		default:
			t.Fatalf("submission %d: unexpected error %v", i, err)
		}
	}
	if rejected < 3 {
		t.Fatalf("rejected %d of %d, want ≥3 (backpressure did not engage)", rejected, submissions)
	}
	if completed == 0 {
		t.Fatal("no admitted request completed")
	}
	ctrs := s.Metrics().Counters()
	if ctrs["serve.rejected"] != int64(rejected) || ctrs["serve.completed"] != int64(completed) {
		t.Fatalf("counters disagree with outcomes: %v (rejected=%d completed=%d)", ctrs, rejected, completed)
	}
}

// TestDeadlineExceeded covers both context failure modes: a request whose
// context dies while queued is dropped at dispatch, and one cancelled before
// execution never runs. Both surface the context error to the client and the
// deadline-exceeded counter.
func TestDeadlineExceeded(t *testing.T) {
	cols, _ := testRelation(1000)
	s := newServer(t, Options{QueueDepth: 8})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(ctx, Request{
		Op: OpScan, Table: "events",
		Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 100, AggCol: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Counters()["serve.deadline_exceeded"]; got != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", got)
	}

	// Cancellation after admission but before execution: pin the pipeline,
	// cancel, release — the executor must drop the request unrun.
	s2 := newServer(t, Options{Workers: 4, OpWorkers: 4, QueueDepth: 8})
	hold := make(chan struct{})
	s2.testHold = hold
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s2.Submit(ctx2, Request{
			Op: OpGroupSum, Keys: []int64{1, 2}, Vals: []int64{3, 4}, Strategy: agg.StrategyGlobal,
		})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it get admitted and pinned
	cancel2()
	close(hold)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainOnClose closes the server while a pass is pinned in execution and
// the rest of the clients wait in the open batch behind it: Close must wait
// for both, every client must get its answer, and post-close submissions
// must fail with ErrClosed.
func TestDrainOnClose(t *testing.T) {
	const clients = 5
	cols, _ := testRelation(5000)
	s := newServer(t, Options{QueueDepth: clients, MaxBatch: clients})
	hold := make(chan struct{})
	s.testHold = hold
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errsOut := make([]error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errsOut[i] = s.Submit(context.Background(), Request{
				Op: OpScan, Table: "events",
				Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 5000, AggCol: 1},
			})
		}()
	}

	closed := make(chan error, 1)
	go func() {
		// Wait until the batch has been collected and pinned (all clients
		// admitted), then close while it is still in flight.
		for s.Metrics().Counters()["serve.admitted"] < clients {
			time.Sleep(time.Millisecond)
		}
		closed <- s.Close()
	}()
	time.Sleep(10 * time.Millisecond)
	close(hold)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	for i, err := range errsOut {
		if err != nil {
			t.Fatalf("client %d lost its response to Close: %v", i, err)
		}
	}

	if _, err := s.Submit(context.Background(), Request{
		Op: OpScan, Table: "events",
		Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 1, AggCol: 1},
	}); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestMixedOps exercises every request kind concurrently against one server
// under the worker budget, checking results against serial references.
func TestMixedOps(t *testing.T) {
	cols, expect := testRelation(10000)
	s := newServer(t, Options{QueueDepth: 64})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 77, BuildRows: 2000, ProbeRows: 8000})
	keys := workload.UniformInts(78, 5000, 100)
	vals := workload.UniformInts(79, 5000, 50)
	wantGroups := agg.Serial(keys, vals)
	li := workload.LineItem(80, 5000)

	var wg sync.WaitGroup
	check := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	ctx := context.Background()
	check("scan", func() error {
		resp, err := s.Submit(ctx, Request{Op: OpScan, Table: "events", Query: scan.Query{FilterCol: 0, Lo: 100, Hi: 900, AggCol: 1}})
		if err != nil {
			return err
		}
		if want := expect(100, 900); resp.Sum != want {
			t.Errorf("scan sum %d, want %d", resp.Sum, want)
		}
		return nil
	})
	check("join", func() error {
		resp, err := s.Submit(ctx, Request{Op: OpJoin, Join: joinInput(g), Algorithm: "auto"})
		if err != nil {
			return err
		}
		if resp.Matches != int64(len(g.ProbeKeys)) {
			t.Errorf("join matches %d, want %d", resp.Matches, len(g.ProbeKeys))
		}
		return nil
	})
	check("group-sum", func() error {
		resp, err := s.Submit(ctx, Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyLocalMerge})
		if err != nil {
			return err
		}
		if len(resp.Groups) != len(wantGroups) {
			t.Errorf("groups %d, want %d", len(resp.Groups), len(wantGroups))
		}
		for k, v := range wantGroups {
			if resp.Groups[k] != v {
				t.Errorf("group %d = %d, want %d", k, resp.Groups[k], v)
			}
		}
		return nil
	})
	check("q1", func() error {
		resp, err := s.Submit(ctx, Request{Op: OpQ1, Lineitem: li, Engine: "vectorized"})
		if err != nil {
			return err
		}
		if len(resp.Q1Rows) == 0 || resp.SimCycles <= 0 {
			t.Errorf("q1: rows=%d cycles=%f", len(resp.Q1Rows), resp.SimCycles)
		}
		return nil
	})
	check("q6", func() error {
		resp, err := s.Submit(ctx, Request{Op: OpQ6, Lineitem: li, Engine: "fused"})
		if err != nil {
			return err
		}
		if resp.Revenue <= 0 || resp.SimCycles <= 0 {
			t.Errorf("q6: revenue=%f cycles=%f", resp.Revenue, resp.SimCycles)
		}
		return nil
	})
	wg.Wait()
}

func TestInvalidRequests(t *testing.T) {
	s := newServer(t, Options{})
	defer s.Close()
	cases := []Request{
		{Op: "bogus"},
		{Op: OpScan, Table: "missing"},
		{Op: OpJoin, Join: joinInput(workload.JoinInput{BuildKeys: []int64{1}}), Algorithm: "npo"},
		{Op: OpJoin, Algorithm: "sideways"},
		{Op: OpGroupSum, Keys: []int64{1}, Strategy: agg.StrategyGlobal},
		{Op: OpGroupSum, Strategy: "bogus"},
		{Op: OpQ1},
		{Op: OpQ6},
	}
	for i, req := range cases {
		if _, err := s.Submit(context.Background(), req); !errors.Is(err, errs.ErrInvalidInput) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	if got := s.Metrics().Counters()["serve.invalid"]; got != int64(len(cases)) {
		t.Errorf("invalid counter = %d, want %d", got, len(cases))
	}
}

// joinInput adapts the workload generator's output to a join.Input.
func joinInput(g workload.JoinInput) join.Input {
	return join.Input{
		BuildKeys: g.BuildKeys, BuildVals: g.BuildVals,
		ProbeKeys: g.ProbeKeys, ProbeVals: g.ProbeVals,
	}
}
