package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/errs"
	"hwstar/internal/workload"
)

// pinnedPass starts one scan of table and pins its pass on the cores with
// testHold, so whatever the test submits next arrives "while a pass is
// running". The returned release lets the pass go and collects its answer; a
// test that fails before calling it still unpins the server (callers close
// the server with t.Cleanup, registered first, so it runs after the unpin).
func pinnedPass(t *testing.T, s *Server, table string) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	unpin := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(unpin)
	s.testHold = hold
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), scanOf(table, 0, 100))
		done <- err
	}()
	waitFor(t, func() bool { return s.coresFree.Value() == 0 }, "the pinned pass never took the cores")
	return func() {
		unpin()
		if err := <-done; err != nil {
			t.Errorf("pinned pass: %v", err)
		}
	}
}

// submitter runs up to n Submits on their own goroutines and collects the
// outcomes by submission index; wg.Wait() before reading them.
type submitter struct {
	s     *Server
	wg    sync.WaitGroup
	next  int
	resps []Response
	errs  []error
}

func newSubmitter(s *Server, n int) *submitter {
	return &submitter{s: s, resps: make([]Response, n), errs: make([]error, n)}
}

func (b *submitter) submit(req Request) {
	i := b.next
	b.next++
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.resps[i], b.errs[i] = b.s.Submit(context.Background(), req)
	}()
}

// TestArrivalsDuringAPassShareTheNext is the batching rule itself: scans that
// arrive, at their own pace, while a pass holds the cores are one batch when
// it ends. No window is involved — under a timer the first of them would have
// been flushed alone.
func TestArrivalsDuringAPassShareTheNext(t *testing.T) {
	cols, expect := testRelation(20000)
	s := newServer(t, Options{QueueDepth: 8})
	t.Cleanup(func() { s.Close() })
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	release := pinnedPass(t, s, "events")
	dequeued := s.reg.Histogram("serve.queue_wait_ms")

	sub := newSubmitter(s, 3)
	for i := int64(0); i < 3; i++ {
		sub.submit(scanOf("events", 1000*i, 1000*i+800))
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, func() bool { return dequeued.Count() == 4 }, "the arrivals never joined the open batch")
	release()
	sub.wg.Wait()
	for i, r := range sub.resps {
		if sub.errs[i] != nil {
			t.Fatalf("arrival %d: %v", i, sub.errs[i])
		}
		if r.BatchSize != 3 {
			t.Errorf("arrival %d: batch size %d, want 3 (everything that arrived during the pass)", i, r.BatchSize)
		}
		if want := expect(1000*int64(i), 1000*int64(i)+800); r.Sum != want {
			t.Errorf("arrival %d: sum %d, want %d", i, r.Sum, want)
		}
	}
	if bs := s.Metrics().Histogram("serve.batch_size"); bs.Count() != 2 {
		t.Errorf("%d passes, want 2 (the pinned one and the shared one): %s", bs.Count(), bs.Summary())
	}
}

// TestOtherTableClosesTheOpenBatch alternates scans of two tables behind a
// pinned pass: each arrival for the other table closes the open batch, so the
// lane's order is the execution order — no batch mixes tables, and none
// reaches past the other table's request to coalesce with a later one.
func TestOtherTableClosesTheOpenBatch(t *testing.T) {
	const arrivals = 6
	colsA, expectA := testRelation(5000)
	colsB, expectB := testRelation(4000) // a prefix of A's data: different sums
	s := newServer(t, Options{QueueDepth: arrivals})
	t.Cleanup(func() { s.Close() })
	for name, cols := range map[string][][]int64{"a": colsA, "b": colsB} {
		if err := s.Register(name, cols); err != nil {
			t.Fatal(err)
		}
	}
	release := pinnedPass(t, s, "a")
	admitted := s.reg.Counter("serve.admitted")

	sub := newSubmitter(s, arrivals)
	for i := 0; i < arrivals; i++ {
		sub.submit(scanOf([]string{"a", "b"}[i%2], 100, 400))
		// One at a time into the lane, so its order is the submission order.
		waitFor(t, func() bool { return admitted.Value() == int64(i+2) }, "arrival never admitted")
	}
	release()
	sub.wg.Wait()
	for i, r := range sub.resps {
		if sub.errs[i] != nil {
			t.Fatalf("arrival %d: %v", i, sub.errs[i])
		}
		want := expectA(100, 400)
		if i%2 == 1 {
			want = expectB(100, 400)
		}
		if r.Sum != want || r.BatchSize != 1 {
			t.Errorf("arrival %d: sum %d in a batch of %d, want %d in a batch of 1", i, r.Sum, r.BatchSize, want)
		}
	}
	if bs := s.Metrics().Histogram("serve.batch_size"); bs.Count() != arrivals+1 {
		t.Errorf("%d passes, want %d: %s", bs.Count(), arrivals+1, bs.Summary())
	}
}

// TestOpenBatchIsBounded pins what the server buffers when the machine is
// behind: the pass in flight, one full open batch (held by the dispatcher,
// blocked placing it) and one lane's worth. The next Submit is ErrOverloaded,
// and everything admitted is answered once the cores come back.
func TestOpenBatchIsBounded(t *testing.T) {
	const maxBatch, queueDepth = 4, 2
	cols, _ := testRelation(5000)
	s := newServer(t, Options{QueueDepth: queueDepth, MaxBatch: maxBatch})
	t.Cleanup(func() { s.Close() })
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	release := pinnedPass(t, s, "events")
	dequeued := s.reg.Histogram("serve.queue_wait_ms")
	admitted := s.reg.Counter("serve.admitted")

	sub := newSubmitter(s, maxBatch+queueDepth)
	for i := 0; i < maxBatch; i++ { // fills the open batch
		sub.submit(scanOf("events", 0, 5000))
		waitFor(t, func() bool { return dequeued.Count() == i+2 }, "scan never joined the open batch")
	}
	for i := 0; i < queueDepth; i++ { // fills the lane behind the blocked dispatcher
		sub.submit(scanOf("events", 0, 5000))
		waitFor(t, func() bool { return admitted.Value() == int64(maxBatch+i+2) }, "scan never admitted")
	}
	if _, err := s.Submit(context.Background(), scanOf("events", 0, 5000)); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("submit past the pass, a full batch and a full lane: %v, want ErrOverloaded", err)
	}
	release()
	sub.wg.Wait()
	for i, err := range sub.errs {
		if err != nil {
			t.Errorf("admitted scan %d: %v", i, err)
		}
	}
	ctrs := s.Metrics().Counters()
	if want := int64(1 + maxBatch + queueDepth); ctrs["serve.admitted"] != want || ctrs["serve.completed"] != want || ctrs["serve.rejected"] != 1 {
		t.Fatalf("admitted %d completed %d rejected %d, want %d %d 1", ctrs["serve.admitted"], ctrs["serve.completed"], ctrs["serve.rejected"], want, want)
	}
}

// TestSequentialRequestsSeeAllCores pins the release-before-reply ordering:
// a client that submits again the moment it has its answer must find every
// core back in the pool, so each response's modeled cycles equal the same
// request's on a fresh idle server. Answering first lets the next request be
// placed on whatever the previous one has not yet returned; that needs the
// host to deschedule the executor between its reply and its release, so this
// is a stress test — shard's TestSimCyclesGolden, repeated under -race by
// `make check`, is where the other order shows up on a two-core host.
func TestSequentialRequestsSeeAllCores(t *testing.T) {
	cols, _ := testRelation(20000)
	reqs := []Request{
		scanOf("events", 100, 900),
		{Op: OpGroupSum, Keys: workload.UniformInts(93, 1<<14, 4096), Vals: workload.UniformInts(94, 1<<14, 100), Strategy: agg.StrategyLocalMerge},
		scanOf("events", 2000, 7000),
	}
	fresh := func() *Server {
		s := newServer(t, Options{})
		if err := s.Register("events", cols); err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := make([]float64, len(reqs))
	for i, req := range reqs {
		s := fresh()
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.SimCycles
		s.Close()
	}
	s := fresh()
	defer s.Close()
	for round := 0; round < 100; round++ {
		for i, req := range reqs {
			resp, err := s.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.SimCycles != want[i] {
				t.Fatalf("round %d request %d (%s): %v modeled cycles, %v on an idle server", round, i, req.Op, resp.SimCycles, want[i])
			}
		}
	}
}
