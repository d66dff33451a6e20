package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"hwstar/internal/agg"
	"hwstar/internal/mem"
	"hwstar/internal/workload"
)

// submitAllocsCeiling is what one warm lone scan on one server may allocate:
// Submit to answer, through the lane, the dispatcher and its executor
// goroutine. Measured 5, plus one; 7 while every pass built its scheduler
// and the schedule's Result a per-worker slice. Before a request's
// pending, its done channel and the scan batch's buffers were pooled the same
// scan made 18 (20 in BenchmarkSubmit/lone-scan, which adds its client
// goroutine), so a per-request channel or per-pass slice puts it over, and so
// does a pending that skips its pool (two objects: itself and its channel).
const submitAllocsCeiling = 6

// TestSubmitAllocs pins serve's per-request garbage on the scan path.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cols, expect := testRelation(20_000)
	want := expect(100, 900)
	s := newServer(t, Options{})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	req := scanOf("events", 100, 900)
	scan := func() {
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sum != want {
			t.Fatalf("scan = %d, want %d", resp.Sum, want)
		}
	}
	for i := 0; i < 20; i++ {
		scan()
	}
	if got := testing.AllocsPerRun(200, scan); got > submitAllocsCeiling {
		t.Fatalf("a warm lone scan allocated %.1f objects, ceiling %d", got, submitAllocsCeiling)
	}
}

// admittedCtx closes admitted the first time anyone asks whether it is done:
// Submit's wait or the dispatcher's dropped-before-dispatch check, both of
// which come after the request is on its lane.
type admittedCtx struct {
	context.Context
	once     sync.Once
	admitted chan struct{}
}

func (c *admittedCtx) signal() { c.once.Do(func() { close(c.admitted) }) }

func (c *admittedCtx) Done() <-chan struct{} {
	c.signal()
	return c.Context.Done()
}

func (c *admittedCtx) Err() error {
	c.signal()
	return c.Context.Err()
}

// TestCancelledSubmitNeverSeesRecycledState pins the pool rule of pending: a
// Submit that returns on its context's end leaves its pending to the GC,
// because its executor may still settle it and send on done. Eight clients
// scan two tables whose sums differ, every request over its own range, and
// one request in three is cancelled the moment it is admitted, so the cancel
// lands anywhere from the queue to after the answer. A pending recycled while
// its executor still held it would hand that executor's answer, or a zero
// one, to another client's request: a wrong sum. Run it under -race, where
// the detector also sees the write.
func TestCancelledSubmitNeverSeesRecycledState(t *testing.T) {
	const clients, scans = 8, 64
	colsA, expectA := testRelation(6000)
	colsB := [][]int64{colsA[0], make([]int64, len(colsA[1]))}
	for i, v := range colsA[1] {
		colsB[1][i] = 3*v + 1
	}
	expect := func(table string, lo, hi int64) int64 {
		if table == "a" {
			return expectA(lo, hi)
		}
		var n int64
		for _, v := range colsA[0] {
			if v >= lo && v <= hi {
				n++
			}
		}
		return 3*expectA(lo, hi) + n
	}
	s := newServer(t, Options{})
	defer s.Close()
	if err := s.Register("a", colsA); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", colsB); err != nil {
		t.Fatal(err)
	}
	var won atomic.Int64 // cancels Submit returned on
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < scans; i++ {
				k := int64(c*scans + i)
				table := "ab"[k%2:][:1]
				lo, hi := 13*k%8000, 13*k%8000+1000+k
				want := expect(table, lo, hi)
				ctx := context.Context(context.Background())
				cancelled := k%3 == 0
				if cancelled {
					cctx, cancel := context.WithCancel(context.Background())
					ac := &admittedCtx{Context: cctx, admitted: make(chan struct{})}
					go func() {
						<-ac.admitted
						cancel()
					}()
					ctx = ac
				}
				resp, err := s.Submit(ctx, scanOf(table, lo, hi))
				switch {
				case err == nil && resp.Sum != want:
					err = fmt.Errorf("client %d scan %d of %q [%d, %d] = %d, want %d", c, i, table, lo, hi, resp.Sum, want)
				case err != nil && cancelled && errors.Is(err, context.Canceled):
					won.Add(1)
					err = nil
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if won.Load() == 0 {
		t.Fatal("no Submit returned on its cancel: the test drove nothing through the ctx.Done path")
	}
}

// emptyPools runs the two collections after which every sync.Pool is empty.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestPooledStatePinsNoColumns pins the zeroing before each Put: what sits in
// serve's pools holds no request's inline columns and no table. With one P,
// the state a request returned is what the next Get hands back, so the test
// holds it across two collections and the weak pointers must read nil.
func TestPooledStatePinsNoColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	t.Run("group-sum keys", func(t *testing.T) {
		s := newServer(t, Options{})
		emptyPools()
		// The caller's only references to the columns live in this call.
		first := func() weak.Pointer[int64] {
			keys := workload.UniformInts(5, 1<<12, 64)
			vals := workload.UniformInts(6, 1<<12, 100)
			if _, err := s.Submit(context.Background(), Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyGlobal}); err != nil {
				t.Fatal(err)
			}
			return weak.Make(&keys[0])
		}()
		s.Close()
		p := pendings.Get().(*pending)
		defer pendings.Put(p)
		emptyPools()
		if first.Value() != nil {
			t.Fatal("the group-sum's keys outlived it: pooled state pins them")
		}
	})

	t.Run("scan table", func(t *testing.T) {
		cols, _ := testRelation(6000)
		s := newServer(t, Options{})
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		old := weak.Make(s.tables["t"])
		s.mu.RUnlock()
		emptyPools()
		if _, err := s.Submit(context.Background(), scanOf("t", 0, 5000)); err != nil {
			t.Fatal(err)
		}
		// Registering the name again drops the table the scan ran on.
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
		s.Close() // its executor has released the batch
		b := batches.Get().(*batch)
		defer batches.Put(b)
		if cap(b.reqs) == 0 {
			t.Fatal("the scan's batch never reached the pool")
		}
		emptyPools()
		if old.Value() != nil {
			t.Fatal("the dropped table outlived its last scan: the pooled batch pins it")
		}
	})
}

// TestLeaseOutlivesCancelledSubmit pins the lease rule of Submit: the server
// takes its own reference to a request's lease at admission and drops it in
// settle, so a Submit that returns on its context leaves the columns to the
// executor that may still read them. The executor is held, its Submit
// cancelled and the caller's reference dropped: while the executor holds, a
// fresh lease must not be handed the held columns. Once it is let go they are
// back in the pool, and a request whose columns are those arrays is answered
// right.
func TestLeaseOutlivesCancelledSubmit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	const n = 1 << 12
	s := newServer(t, Options{})
	defer s.Close()
	hold := make(chan struct{})
	s.testHold = hold
	letGo := sync.OnceFunc(func() { close(hold) })
	defer letGo()

	lease := mem.NewLease()
	keys, vals := lease.Column(n), lease.Column(n)
	fillGroupSum(keys, vals, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyGlobal, Lease: lease})
		errc <- err
	}()
	waitFor(t, func() bool { return s.coresFree.Value() < int64(s.Workers()) }, "the group-sum's executor never took its cores")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v", err)
	}
	lease.Release() // the caller's reference: the held executor's is the last

	held := map[*int64]bool{&keys[0]: true, &vals[0]: true}
	fresh := mem.NewLease()
	for i := 0; i < 4; i++ {
		if col := fresh.Column(n); held[&col[0]] {
			t.Fatal("a fresh lease was handed a column the held executor still reads")
		}
	}
	fresh.Release()

	letGo()
	// The executor settles before it sends the release that frees its cores.
	waitFor(t, func() bool { return s.coresFree.Value() == int64(s.Workers()) }, "the held executor never finished")
	again := mem.NewLease()
	defer again.Release()
	var cols [][]int64
	for i := 0; i < 8 && len(cols) < 2; i++ {
		if col := again.Column(n); held[&col[0]] || raceEnabled {
			cols = append(cols, col)
		}
	}
	if len(cols) < 2 {
		t.Fatal("the settled executor's release did not return the columns to the pool")
	}
	want := fillGroupSum(cols[0], cols[1], 2)
	resp, err := s.Submit(context.Background(), Request{Op: OpGroupSum, Keys: cols[0], Vals: cols[1], Strategy: agg.StrategyGlobal, Lease: again})
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(resp.Groups, want) {
		t.Fatalf("group-sum over recycled columns: %d groups, want %d", len(resp.Groups), len(want))
	}
}

// fillGroupSum writes every element of keys and vals from seed and returns
// the group sums they make.
func fillGroupSum(keys, vals []int64, seed int64) map[int64]int64 {
	want := make(map[int64]int64)
	for i := range keys {
		keys[i], vals[i] = (int64(i)*seed)%61, int64(i)+seed
		want[keys[i]] += vals[i]
	}
	return want
}
