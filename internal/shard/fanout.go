package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hwstar/internal/errs"
	"hwstar/internal/serve"
)

// fanout is one routed request's dispatch: its sub-requests (a scan's
// stripes, a join's sub-joins, or one inline request), each sent to its
// replica set with failover and hedging. run drives every sub from the
// calling goroutine under one cancel context, one hedge timer and one
// results channel; only the attempts themselves run on goroutines of their
// own. The state is pooled, its hedge timer and results channel included,
// so a request whose primaries all answer in time allocates none of it.
type fanout struct {
	ctx context.Context // the attempts' context, cancelled when run returns
	// hedge is made by the first run that hedges and kept with f: run
	// Resets it and stops it on return, which under the Go 1.23 timer
	// semantics (on, as the module says go 1.24) leaves no stale tick for
	// the next run to read.
	hedge *time.Timer
	subs  []sub
	// tries holds every sub's candidates back to back, one attempt slot
	// each. An attempt writes only its own slot, then sends the slot's index
	// on done, which is buffered to at least len(tries): no attempt ever
	// blocks, even after run has returned.
	tries []try
	done  chan int
	// outstanding counts the attempts launched and not yet received.
	outstanding int
}

// sub is one sub-request and, once run returns, its outcome: resp when err
// is nil, how it hedged and how often it failed over.
type sub struct {
	req      serve.Request
	replicas []int
	// part is the sub's partition — a scan's stripe, a sub-join's
	// destination — and offsets the rotation of its candidates.
	part int

	first, end        int // its candidates: tries[first:end], in launch order
	launched, pending int
	settled           bool

	resp      serve.Response
	err       error
	hedged    bool
	failovers int
}

// try is one candidate of one sub and, once its attempt has reported, that
// attempt's answer.
type try struct {
	node   *node
	sub    int
	hedged bool
	resp   serve.Response
	err    error
}

var fanouts = sync.Pool{New: func() any { return new(fanout) }}

// errStripeMissing is a scan stripe refused by a replica that does not hold
// it: a lost replica.
var errStripeMissing = fmt.Errorf("shard: replica lacks the stripe: %w", errs.ErrDegraded)

// newFanout returns pooled state with room for n sub-requests.
func newFanout(n int) *fanout {
	f := fanouts.Get().(*fanout)
	f.subs = slices.Grow(f.subs, n)
	return f
}

// add appends partition part's sub-request for replicas and returns its
// Request, a copy of req, for the caller to narrow (a stripe's table, a
// sub-join's input).
func (f *fanout) add(req serve.Request, part int, replicas []int) *serve.Request {
	f.subs = append(f.subs, sub{replicas: replicas, part: part})
	s := &f.subs[len(f.subs)-1]
	s.req = req
	return &s.req
}

// release returns f to the pool once every attempt it launched has
// reported; it collects the reports of hedge losers that have already
// finished. While a loser still runs, it reads its sub's Request and writes
// its try slot: recycled, that is another request's state, and a silent
// wrong total. So f then goes to the GC instead. Every sub and try is zeroed
// before the Put, or the pool would pin an inline request's columns and a
// group-sum's result map.
func (f *fanout) release() {
	for ; f.outstanding > 0; f.outstanding-- {
		select {
		case <-f.done:
		default:
			return
		}
	}
	clear(f.subs)
	clear(f.tries)
	f.ctx, f.subs, f.tries = nil, f.subs[:0], f.tries[:0]
	fanouts.Put(f)
}

// run dispatches every sub of f and returns once each is settled:
//
//   - a sub's candidates are its live replicas (candidates), rotated by
//     the request's rotor draw plus the sub's partition, so load spreads
//     across replicas and sub-joins across nodes;
//   - every sub's primary starts at once; when the op class's hedge
//     deadline (the p95 of its recent dispatches) passes, every sub still
//     unanswered hedges to its next unused candidate, and whichever attempt
//     answers first wins;
//   - a failed attempt (node died, shed for want of room, errored) fails
//     over to the sub's next unused candidate at once;
//   - an inline request (a group-sum, a sub-join) refused as invalid input
//     settles its sub with that error: the request is at fault, so no
//     failover. A scan stripe refused so is a node without the stripe, and
//     fails over as a lost replica;
//   - a sub fails only when every candidate it launched has failed.
//
// A sub that succeeds records its time from the first launch to the
// winning answer in its op class. A hedged sub therefore records at least
// its deadline, so hedging cannot pull the p95 down into a hedge storm.
//
// Attempts still running when run returns (hedge losers) are cancelled
// then, when the whole request is answered, not when their own sub settles.
// Each sends exactly one index on the buffered done channel, so none
// outlives the request uncollected (a test pins this).
func (r *Router) run(ctx context.Context, f *fanout) {
	// A caller already gone gets its cancellation before any attempt starts.
	if err := ctx.Err(); err != nil {
		f.abandon(err)
		return
	}
	start := time.Now()
	rot := int(r.rotor.Add(1))
	ntries := 0
	for i := range f.subs {
		ntries += len(f.subs[i].replicas)
	}
	f.tries = slices.Grow(f.tries, ntries)
	for i := range f.subs {
		s := &f.subs[i]
		s.first = len(f.tries)
		f.tries = candidates(f.tries, r.nodes, s.replicas, rot+s.part)
		s.end = len(f.tries)
	}
	if cap(f.done) < len(f.tries) {
		f.done = make(chan int, len(f.tries))
	}
	// The attempts' context keeps ctx's values but not its cancellation:
	// rooted at ctx itself, it would register as a child of the caller's
	// context (a net/http request's allocates a children map and a Done
	// channel for it). Cancellation still reaches every attempt: run
	// returns on ctx.Done(), and the deferred cancel stops what still runs.
	actx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	f.ctx = actx

	waiting := 0
	for i := range f.subs {
		if s := &f.subs[i]; s.first == s.end {
			s.err, s.settled = noReplicaErr(s), true
			continue
		}
		f.launch(i, false)
		waiting++
	}
	if waiting == 0 {
		return
	}
	var hedge <-chan time.Time // nil while the class is warming up: never hedge
	if d := r.hedgeDelayFor(opClass(f.subs[0].req.Op)); d > 0 {
		if f.hedge == nil {
			f.hedge = time.NewTimer(d)
		} else {
			f.hedge.Reset(d)
		}
		defer f.hedge.Stop()
		hedge = f.hedge.C
	}

	for waiting > 0 {
		select {
		case <-ctx.Done():
			f.abandon(ctx.Err())
			return
		case <-hedge:
			// The primaries exceeded the class's deadline: every sub still
			// waiting hedges to its next unused candidate, if any.
			for i := range f.subs {
				if s := &f.subs[i]; !s.settled && s.first+s.launched < s.end {
					s.hedged = true
					r.reg.Counter("shard.hedges").Inc()
					f.launch(i, true)
				}
			}
		case t := <-f.done:
			f.outstanding--
			a := &f.tries[t]
			s := &f.subs[a.sub]
			s.pending--
			if s.settled {
				continue // a hedge loser: its sub already has its answer
			}
			switch {
			case a.err == nil:
				r.lat[opClass(s.req.Op)].record(time.Since(start))
				if a.hedged {
					r.reg.Counter("shard.hedge_wins").Inc()
				}
				s.resp, s.err, s.settled = a.resp, nil, true
				waiting--
				continue
			case errors.Is(a.err, context.Canceled) && ctx.Err() == nil:
				// Lost a hedge race — not a node failure.
			case errors.Is(a.err, errs.ErrInvalidInput) && s.req.Op != serve.OpScan:
				// An inline request is at fault, not the node: every
				// replica would refuse it too.
				s.err, s.settled = a.err, true
				waiting--
				continue
			default:
				s.err = a.err
				if errors.Is(a.err, errs.ErrInvalidInput) {
					// The router has checked the scan, so a node refusing
					// it lacks the stripe (a memory-only node recovers
					// empty): a lost replica, not a bad request.
					s.err = errStripeMissing
				}
				if s.first+s.launched < s.end {
					s.failovers++
					r.reg.Counter("shard.failovers").Inc()
					f.launch(a.sub, false)
				}
			}
			if s.pending == 0 {
				if s.err == nil {
					s.err = fmt.Errorf("shard: all replicas lost: %w", errs.ErrDegraded)
				}
				s.settled = true
				waiting--
			}
		}
	}
}

// launch starts sub i's next unused candidate, with its own reference to the
// request's lease: run may return before the attempt reaches Submit.
func (f *fanout) launch(i int, hedged bool) {
	s := &f.subs[i]
	t := s.first + s.launched
	s.launched++
	s.pending++
	f.outstanding++
	f.tries[t].sub, f.tries[t].hedged = i, hedged
	s.req.Lease.Acquire()
	go f.attempt(t)
}

// attempt sends try t's sub-request to its node and reports t on done. A
// node found dead, or refusing with errs.ErrClosed while KillNode stops its
// server, is reported down. attempt drops its lease reference before the
// send: after it, f may be recycled.
func (f *fanout) attempt(t int) {
	a := &f.tries[t]
	req := &f.subs[a.sub].req
	srv := a.node.srv.Load()
	if srv != nil {
		a.resp, a.err = srv.Submit(f.ctx, *req)
	}
	if srv == nil || errors.Is(a.err, errs.ErrClosed) {
		a.err = fmt.Errorf("shard: node %d down: %w", a.node.id, errs.ErrDegraded)
	}
	req.Lease.Release()
	f.done <- t
}

// abandon settles every sub still waiting with the caller's cancellation.
func (f *fanout) abandon(cause error) {
	err := fmt.Errorf("shard: dispatch cancelled: %w", cause)
	for i := range f.subs {
		if s := &f.subs[i]; !s.settled {
			s.err, s.settled = err, true
		}
	}
}

// noReplicaErr is the error of a sub with no live candidate, built outside
// run's loop: it formats the replica set.
func noReplicaErr(s *sub) error {
	return fmt.Errorf("shard: no live replica for %q (replicas %v): %w", s.req.Table, s.replicas, errs.ErrDegraded)
}

// candidates appends to dst one try per live node of a replica set, in
// rotation order from rot. Dead nodes are left out. run has grown dst to hold
// every replica, so nothing is allocated.
func candidates(dst []try, nodes []*node, replicas []int, rot int) []try {
	for i := range replicas {
		if n := nodes[replicas[(i+rot)%len(replicas)]]; n.srv.Load() != nil {
			dst = append(dst, try{node: n})
		}
	}
	return dst
}
