package serve

// The dispatcher is serve's batching and core rules as one pure function of
// plain counts: step(event) returns the units to start and nothing else
// happens. It touches no channel, goroutine, lock, clock or metric, so every
// rule is a table row and every interleaving a generated event history
// (dispatch_test.go). Server.dispatch is the loop around it.

// eventKind names one dispatcher input.
type eventKind uint8

const (
	evArrive  eventKind = iota // p was taken from a lane
	evIdle                     // both readable lanes are empty
	evRelease                  // a unit returned n cores of class batchClass
	evClose                    // both lanes are closed: drain
)

// event is one dispatcher input. vt is the table of a scan that opens a batch.
type event struct {
	kind       eventKind
	p          *pending
	vt         *vecTable
	n          int
	batchClass bool
}

// start is one unit whose cores the dispatcher has counted out: the shared
// pass b or the request p, on workers cores, of class lo (batch).
type start struct {
	b       *batch
	p       *pending
	workers int
	lo      bool
}

// dispatcher holds the core counts and the work not yet started: the open
// scan batch, batch-class work parked FIFO for the batch core cap, and at most
// one interactive unit waiting for its floor.
type dispatcher struct {
	workers, opWorkers, maxBatch int
	batchCap                     int // Workers - InteractiveReserve: the most batch-class work may hold
	floor                        int // max(InteractiveReserve, 1): where an interactive unit may start

	free, batchHeld int
	open            *batch
	parked          []start
	wait            start // workers == 0: nothing waits
	closing         bool
	out             []start
}

func newDispatcher(o Options) *dispatcher {
	return &dispatcher{
		workers: o.Workers, opWorkers: o.OpWorkers, maxBatch: o.MaxBatch,
		batchCap: o.Workers - o.InteractiveReserve,
		floor:    max(o.InteractiveReserve, 1),
		free:     o.Workers,
	}
}

// step applies one event and returns the units to start, in a buffer reused
// by the next step. On idle the order is fixed: the interactive open batch,
// then parked work oldest first, then an all-batch open batch.
func (d *dispatcher) step(ev event) []start {
	d.out = d.out[:0]
	switch ev.kind {
	case evArrive:
		d.arrive(ev.p, ev.vt)
	case evIdle:
		if !d.waiting() {
			if d.open != nil && !d.open.lo {
				d.place(false)
			}
			d.startParked()
			if d.open != nil && d.open.lo {
				d.place(false)
			}
		}
	case evRelease:
		d.free += ev.n
		if ev.batchClass {
			d.batchHeld -= ev.n
		}
		if d.waiting() {
			u := d.wait
			d.wait = start{}
			d.admit(u, true)
		}
	case evClose:
		d.closing = true
	}
	// A full batch, or any batch once closing, closes; closing, parked work
	// starts as its cores come back. Both wait behind a waiting unit.
	if !d.waiting() && d.open != nil && (d.closing || len(d.open.reqs) >= d.maxBatch) {
		d.place(true)
	}
	if d.closing && !d.waiting() {
		d.startParked()
	}
	return d.out
}

// reads reports which lanes the loop may take from: neither while a unit
// waits for its floor, and not the batch lane while batch work is parked, so
// each lane's bounded channel stays the only buffer behind a busy machine.
func (d *dispatcher) reads() (hi, lo bool) {
	return !d.waiting(), !d.waiting() && len(d.parked) == 0
}

// drained reports that nothing is open, parked or waiting.
func (d *dispatcher) drained() bool {
	return d.open == nil && len(d.parked) == 0 && !d.waiting()
}

func (d *dispatcher) waiting() bool { return d.wait.workers > 0 }

// arrive places a non-scan request on OpWorkers cores (one for the
// single-threaded Q1/Q6 engines, capped at batchCap for batch class), and adds
// a scan to the open batch, first closing one that holds another table. A
// single interactive member makes the whole pass interactive.
func (d *dispatcher) arrive(p *pending, vt *vecTable) {
	lo := p.req.Priority.batchClass()
	if p.req.Op != OpScan {
		w := d.opWorkers
		if p.req.Op == OpQ1 || p.req.Op == OpQ6 {
			w = 1
		}
		if lo {
			w = min(w, d.batchCap)
		}
		d.admit(start{p: p, workers: w, lo: lo}, true)
		return
	}
	if d.open != nil && d.open.table != p.req.Table {
		d.place(true)
	}
	if d.open == nil {
		d.open = newBatch(p.req.Table, vt)
	}
	d.open.lo = d.open.lo && lo
	d.open.reqs = append(d.open.reqs, p)
}

// place moves the open batch into a start, on every core (at most batchCap
// when all-batch). Refused and not closing, it stays open.
func (d *dispatcher) place(closing bool) {
	b := d.open
	b.workers = d.workers
	if b.lo {
		b.workers = min(b.workers, d.batchCap)
	}
	if d.admit(start{b: b, workers: b.workers, lo: b.lo}, closing) {
		d.open = nil
	}
}

// admit starts u if its cores are free. Batch-class work needs all of them
// within batchCap and never jumps parked work; interactive work starts once
// its floor is free and widens to what else is. Otherwise, with queue set, an
// interactive unit waits for its floor and batch-class work parks; without,
// admit reports false.
func (d *dispatcher) admit(u start, queue bool) bool {
	switch {
	case u.lo && len(d.parked) == 0 && d.fits(u):
	case !u.lo && d.free >= min(d.floor, u.workers):
		u.workers = min(d.free, u.workers)
	case !queue:
		return false
	case u.lo:
		d.parked = append(d.parked, u)
		return true
	default:
		d.wait = u
		return true
	}
	d.take(u)
	return true
}

// take counts u's cores out and appends it to the step's starts.
func (d *dispatcher) take(u start) {
	d.free -= u.workers
	if u.lo {
		d.batchHeld += u.workers
	}
	if u.b != nil {
		u.b.workers = u.workers
	}
	d.out = append(d.out, u)
}

func (d *dispatcher) fits(u start) bool {
	return u.workers <= d.free && u.workers <= d.batchCap-d.batchHeld
}

// startParked starts parked work oldest first, up to the first that does not
// fit.
func (d *dispatcher) startParked() {
	n := 0
	for ; n < len(d.parked) && d.fits(d.parked[n]); n++ {
		d.take(d.parked[n])
	}
	m := copy(d.parked, d.parked[n:])
	clear(d.parked[m:])
	d.parked = d.parked[:m]
}
