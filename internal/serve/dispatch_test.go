package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/workload"
)

// Arrivals in the rule table are named by their TraceID.
func arrival(name string, op Op, table string, prio Priority) event {
	return event{kind: evArrive, p: &pending{req: Request{Op: op, Table: table, Priority: prio, TraceID: name}}}
}

func scanA(name, table string) event  { return arrival(name, OpScan, table, "") }
func scanB(name, table string) event  { return arrival(name, OpScan, table, PriorityBatch) }
func opA(name string, op Op) event    { return arrival(name, op, "", "") }
func opB(name string, op Op) event    { return arrival(name, op, "", PriorityBatch) }
func release(n int, batch bool) event { return event{kind: evRelease, n: n, batchClass: batch} }

var (
	idle    = event{kind: evIdle}
	idleDeg = event{kind: evIdle, degraded: true}
	closing = event{kind: evClose}
)

// render names what one step started: "s1+s2@8" is a pass of s1 and s2 on 8
// cores, "g1@4 batch" a batch-class operation on 4.
func render(starts []start) string {
	parts := make([]string, len(starts))
	for i, st := range starts {
		var names []string
		if st.b != nil {
			for _, p := range st.b.reqs {
				names = append(names, p.req.TraceID)
			}
		} else {
			names = append(names, st.p.req.TraceID)
		}
		parts[i] = strings.Join(names, "+") + "@" + strconv.Itoa(st.workers)
		if st.lo {
			parts[i] += " batch"
		}
	}
	return strings.Join(parts, ", ")
}

// dispatchRules are the dispatcher's rules, each an event history driven
// through step alone. wantStarts[i] is what the i-th event started ("" for
// nothing). Unless a row says otherwise the server has 8 cores, OpWorkers 4,
// InteractiveReserve 2 (so the floor is 2 and the batch cap 6) and MaxBatch 3.
var dispatchRules = []struct {
	name       string
	opts       Options
	events     []event
	wantStarts []string
}{
	{"a lone scan on an idle server starts at once with every core", Options{},
		[]event{scanA("s1", "a"), idle},
		[]string{"", "s1@8"}},
	{"arrivals during a pass share the next one", Options{},
		[]event{scanA("s1", "a"), idle, scanA("s2", "a"), idle, scanA("s3", "a"), idle, release(8, false), idle},
		[]string{"", "s1@8", "", "", "", "", "", "s2+s3@8"}},
	{"MaxBatch closes the open batch", Options{},
		[]event{scanA("s1", "a"), scanA("s2", "a"), scanA("s3", "a")},
		[]string{"", "", "s1+s2+s3@8"}},
	{"another table closes the open batch", Options{},
		[]event{scanA("a1", "a"), scanA("b1", "b"), idle, release(8, false), idle},
		[]string{"", "a1@8", "", "", "b1@8"}},
	{"close closes the open batch", Options{},
		[]event{scanA("s1", "a"), closing},
		[]string{"", "s1@8"}},
	{"Q1 and Q6 get one core, other operations OpWorkers", Options{},
		[]event{opA("q1", OpQ1), opA("q6", OpQ6), opA("j1", OpJoin)},
		[]string{"q1@1", "q6@1", "j1@4"}},
	{"an all-batch pass is capped at Workers minus the reserve", Options{},
		[]event{scanB("t1", "a"), idle},
		[]string{"", "t1@6 batch"}},
	{"an interactive arrival under a full batch hold starts on the reserve and widens to what is free", Options{},
		[]event{opB("g1", OpGroupSum), opB("q1", OpQ1), opB("q2", OpQ1), release(1, true), scanA("s1", "a"), idle},
		[]string{"g1@4 batch", "q1@1 batch", "q2@1 batch", "", "", "s1@3"}},
	{"an all-batch placement does not jump parked work", Options{},
		[]event{opB("g1", OpGroupSum), scanB("t1", "a"), opB("g2", OpGroupSum), idleDeg, release(4, true), idle,
			release(4, true), idle},
		[]string{"g1@4 batch", "", "", "", "", "g2@4 batch", "", "t1@6 batch"}},
	{"a degraded pass gets a quarter of the cores", Options{},
		[]event{scanA("s1", "a"), idleDeg},
		[]string{"", "s1@2"}},
	{"a closing interactive batch waits for its floor, and nothing else starts meanwhile", Options{},
		[]event{opA("g1", OpGroupSum), opA("g2", OpGroupSum), opB("q1", OpQ1), scanA("a1", "a"), scanA("b1", "b"),
			release(1, false), idle, release(4, false), idle},
		[]string{"g1@4", "g2@4", "", "", "", "", "", "a1@5", ""}},
	{"with no reserve an interactive unit still waits for one core", Options{Workers: 4, OpWorkers: 4, MaxBatch: 3},
		[]event{opA("g1", OpGroupSum), opA("g2", OpGroupSum), idle, release(1, false)},
		[]string{"g1@4", "", "", "g2@1"}},
	{"release before reply: after release(Workers) the next arrival starts with every core", Options{},
		[]event{scanA("s1", "a"), idle, release(8, false), scanA("s2", "a"), idle},
		[]string{"", "s1@8", "", "", "s2@8"}},
	{"drain at close runs parked work in order", Options{},
		[]event{opB("g1", OpGroupSum), scanB("t1", "a"), opB("g2", OpGroupSum), scanA("s1", "b"), closing,
			release(4, true), release(4, false), release(4, true)},
		[]string{"g1@4 batch", "", "", "", "s1@4", "g2@4 batch", "", "t1@6 batch"}},
}

func TestDispatchRules(t *testing.T) {
	for _, row := range dispatchRules {
		t.Run(row.name, func(t *testing.T) {
			opts := row.opts
			if opts.Workers == 0 {
				opts = Options{Workers: 8, OpWorkers: 4, InteractiveReserve: 2, MaxBatch: 3}
			}
			d := newDispatcher(opts)
			for i, ev := range row.events {
				if got := render(d.step(ev)); got != row.wantStarts[i] {
					t.Fatalf("event %d started %q, want %q", i, got, row.wantStarts[i])
				}
			}
		})
	}
}

// unitKey identifies a start across steps.
func unitKey(u start) any {
	if u.b != nil {
		return u.b
	}
	return u.p
}

// checkHistory decodes data into a dispatcher configuration and an event
// history the loop could produce (arrivals only on lanes reads() opens,
// releases only of running units, in any order), steps it, and checks the
// dispatcher's invariants after every step. The history ends with close and
// the release of every running unit, after which nothing may be left.
func checkHistory(t *testing.T, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	w := 1 + next()%16
	opts := Options{Workers: w, InteractiveReserve: next() % w, OpWorkers: 1 + next()%w, MaxBatch: 1 + next()%4}
	d := newDispatcher(opts)
	var running []start
	started := map[*pending]int{}
	var arrivals []*pending
	fail := func(i int, ev event, format string, args ...any) {
		t.Helper()
		t.Fatalf("%+v event %d (kind %d): %s", opts, i, ev.kind, fmt.Sprintf(format, args...))
	}
	stepAndCheck := func(i int, ev event) {
		t.Helper()
		wait, wasWaiting := d.wait, d.waiting()
		parked := make([]any, len(d.parked))
		for j, u := range d.parked {
			parked[j] = unitKey(u)
		}
		starts := d.step(ev)
		k := 0 // parked units started so far, which must be parked's oldest
		for j, u := range starts {
			if u.workers < 1 {
				fail(i, ev, "start %d on %d cores", j, u.workers)
			}
			if wasWaiting && j == 0 && unitKey(u) != unitKey(wait) {
				fail(i, ev, "a unit started while another waited for its floor")
			}
			for _, pk := range parked[k:] {
				if pk == unitKey(u) {
					if pk != parked[k] {
						fail(i, ev, "parked work started out of order")
					}
					k++
				}
			}
			running = append(running, u)
			if u.b != nil {
				for _, p := range u.b.reqs {
					started[p]++
				}
			} else {
				started[u.p]++
			}
		}
		if wasWaiting && d.waiting() && unitKey(d.wait) == unitKey(wait) && len(starts) > 0 {
			fail(i, ev, "%d units started while one waited for its floor", len(starts))
		}
		for j, pk := range parked[k:] {
			if j >= len(d.parked) || unitKey(d.parked[j]) != pk {
				fail(i, ev, "parked work reordered or lost")
			}
		}
		held, batchHeld := 0, 0
		for _, u := range running {
			held += u.workers
			if u.lo {
				batchHeld += u.workers
			}
		}
		if d.free < 0 || d.free+held != w {
			fail(i, ev, "free %d with %d held of %d", d.free, held, w)
		}
		if d.batchHeld != batchHeld || batchHeld > d.batchCap {
			fail(i, ev, "batch class holds %d (counted %d), cap %d", batchHeld, d.batchHeld, d.batchCap)
		}
		for p, n := range started {
			if n > 1 {
				fail(i, ev, "%s started %d times", p.req.TraceID, n)
			}
		}
	}
	ops := []Op{OpScan, OpGroupSum, OpJoin, OpQ1}
	closed := false
	for i := 0; len(data) > 0; i++ {
		b, arg := next(), next()
		var ev event
		switch b % 4 {
		case 0:
			hi, lo := d.reads()
			if closed || !hi {
				continue
			}
			var prio Priority
			if lo && arg&1 == 1 {
				prio = PriorityBatch
			}
			p := &pending{req: Request{Op: ops[arg>>1%4], Table: "ab"[arg>>3%2:][:1], Priority: prio, TraceID: strconv.Itoa(i)}}
			arrivals = append(arrivals, p)
			ev = event{kind: evArrive, p: p, degraded: arg&16 != 0}
		case 1:
			ev = event{kind: evIdle, degraded: arg&1 == 1}
		case 2:
			if len(running) == 0 {
				continue
			}
			j := arg % len(running)
			u := running[j]
			running = append(running[:j], running[j+1:]...)
			ev = release(u.workers, u.lo)
		default:
			if closed || arg%8 != 0 {
				continue
			}
			closed = true
			ev = event{kind: evClose, degraded: arg&16 != 0}
		}
		stepAndCheck(i, ev)
	}
	if !closed {
		stepAndCheck(-1, closing)
	}
	for len(running) > 0 {
		u := running[0]
		running = running[1:]
		stepAndCheck(-1, release(u.workers, u.lo))
	}
	if !d.drained() || d.free != w || d.batchHeld != 0 {
		t.Fatalf("%+v: after close and every release: drained %v, free %d, batch held %d", opts, d.drained(), d.free, d.batchHeld)
	}
	for _, p := range arrivals {
		if started[p] != 1 {
			t.Fatalf("%+v: arrival %s started %d times", opts, p.req.TraceID, started[p])
		}
	}
}

func FuzzDispatch(f *testing.F) {
	f.Add([]byte{7, 2, 3, 2, 0, 0, 0, 1, 1, 0, 0, 9, 2, 0, 1, 0})
	f.Add([]byte{15, 3, 7, 0, 0, 1, 0, 3, 0, 5, 1, 0, 2, 1, 0, 17, 3, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 3, 0})
	f.Fuzz(checkHistory)
}

// TestDispatchHistories is FuzzDispatch over 500 seeded histories.
func TestDispatchHistories(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 16+rng.Intn(240))
		rng.Read(data)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { checkHistory(t, data) })
	}
}

// enqueue puts req straight onto the interactive lane, as Submit would after
// admission, and returns its pending.
func enqueue(s *Server, req Request) *pending {
	p := &pending{ctx: context.Background(), req: req, enq: time.Now(), done: make(chan outcome, 1)}
	s.intake <- p
	return p
}

// TestReleasesStepBeforeArrivals pins the loop's drain-releases-first rule. The
// loop is held inside a scan's table lookup (the test has the server's write
// lock) while a release and an arrival are queued together; the arrival — a
// group-sum that starts the moment it is stepped — must be placed on the
// released cores, so it costs what it costs on an idle server.
func TestReleasesStepBeforeArrivals(t *testing.T) {
	cols, _ := testRelation(5000)
	opts := Options{Workers: 8, OpWorkers: 8, InteractiveReserve: 2}
	group := Request{Op: OpGroupSum, Keys: workload.UniformInts(95, 1<<14, 4096), Vals: workload.UniformInts(96, 1<<14, 100), Strategy: agg.StrategyLocalMerge}
	idleSrv := newServer(t, opts)
	want, err := idleSrv.Submit(context.Background(), group)
	if err != nil {
		t.Fatal(err)
	}
	idleSrv.Close()

	s := newServer(t, opts)
	t.Cleanup(func() { s.Close() })
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	s.released <- release(-6, false) // hold 6 cores: the floor is what is left
	waitFor(t, func() bool { return s.coresFree.Value() == 2 }, "the hold was never stepped")
	s.mu.Lock()
	x := enqueue(s, scanOf("events", 0, 100))
	waitFor(t, func() bool { return s.reg.Histogram("serve.queue_wait_ms").Count() == 1 }, "the scan was never taken")
	// The loop is now inside the scan's lookup, blocked on s.mu.
	s.released <- release(6, false)
	y := enqueue(s, group)
	s.mu.Unlock()

	if out := <-y.done; out.err != nil || out.resp.SimCycles != want.SimCycles {
		t.Fatalf("group-sum queued behind a release: %v cycles (err %v), %v on an idle server", out.resp.SimCycles, out.err, want.SimCycles)
	}
	if out := <-x.done; out.err != nil {
		t.Fatalf("scan: %v", out.err)
	}
}

// TestIdleStepsReleasesFirst pins the loop's other drain: a release queued
// while the loop was busy is stepped before the idle step that places the
// open batch, so the pass widens to every core already returned. The loop is
// held inside a scan's table lookup while 6 held cores come back; the scan's
// pass must cost what it costs on an idle server, not what it costs on the
// 2-core floor.
func TestIdleStepsReleasesFirst(t *testing.T) {
	cols, _ := testRelation(5000)
	opts := Options{Workers: 8, OpWorkers: 8, InteractiveReserve: 2}
	scan := scanOf("events", 0, 2500)
	idleSrv := newServer(t, opts)
	if err := idleSrv.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	want, err := idleSrv.Submit(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	idleSrv.Close()

	s := newServer(t, opts)
	t.Cleanup(func() { s.Close() })
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	s.released <- release(-6, false)
	waitFor(t, func() bool { return s.coresFree.Value() == 2 }, "the hold was never stepped")
	s.mu.Lock()
	x := enqueue(s, scan)
	waitFor(t, func() bool { return s.reg.Histogram("serve.queue_wait_ms").Count() == 1 }, "the scan was never taken")
	s.released <- release(6, false)
	s.mu.Unlock()

	if out := <-x.done; out.err != nil || out.resp.SimCycles != want.SimCycles {
		t.Fatalf("scan placed before a queued release: %v cycles (err %v), %v on an idle server", out.resp.SimCycles, out.err, want.SimCycles)
	}
}
