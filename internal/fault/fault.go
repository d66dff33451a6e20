// Package fault is a seeded, deterministic fault-injection substrate for the
// hwstar execution stack. Real hardware fails partially — cores stall,
// machines run hot and slow down, tasks die — and a parallel design is only
// trustworthy when exactly those modes are exercised deliberately. An
// Injector is armed on a scheduler run (sched.Options.Inject) or a server
// (serve.Options.Faults) or a store (store.Options.Faults) or a shard
// router (shard.Options.Faults) and produces nine fault classes at
// configurable, reproducible probabilities:
//
//   - panics: a scheduled task panics before its body runs;
//   - stragglers: a worker's cycle charges are multiplied by a skew factor,
//     modelling a thermally throttled or contended core;
//   - transient errors: a task fails with errs.ErrTransient, retryable;
//   - core loss: a worker disappears at the start of a run;
//   - allocation failures: a memory-reservation charge fails with
//     errs.ErrMemoryPressure before any bytes are accounted;
//   - crashes: the process "dies" at a named durability step, aborting a
//     checkpoint with exactly the partial on-disk state a SIGKILL would
//     leave;
//   - torn writes: only a prefix of a payload reaches disk while the write
//     reports success, caught by checksums at read time;
//   - checksum flips: a silent single-byte corruption after the checksum
//     was computed, modelling bit rot;
//   - node loss: a whole node (one shard's serve.Server) disappears,
//     drawn per node per chaos tick by the shard router.
//
// Injected panics and transient errors fire at the morsel boundary, BEFORE
// the task body executes, so a re-dispatched or retried morsel never
// double-applies partial effects. Every fired fault is appended to a log the
// tests assert against: a chaos test is only meaningful if it can prove each
// fault class actually fired.
//
// All draws come from one seeded source, so a single-threaded consumer (the
// scheduler's virtual-time loop, a sequential experiment driver) replays the
// exact same fault sequence from the same seed.
package fault

import (
	"fmt"
	"math/rand"
	"sync"

	"hwstar/internal/errs"
)

// Class names a fault category in the log and in count snapshots.
type Class string

// Fault classes.
const (
	ClassPanic        Class = "panic"
	ClassStraggler    Class = "straggler"
	ClassTransient    Class = "transient"
	ClassCoreLoss     Class = "core-loss"
	ClassAllocFail    Class = "alloc-fail"
	ClassCrash        Class = "crash"
	ClassTornWrite    Class = "torn-write"
	ClassChecksumFlip Class = "checksum-flip"
	// ClassNodeLoss is core loss lifted one level up the hierarchy: a whole
	// shard (every core of one node's serve.Server) disappears at once. The
	// shard router draws it per node per chaos tick and drives replica
	// failover + re-replication in response.
	ClassNodeLoss Class = "node-loss"
)

// Config arms an Injector. Probabilities are in [0,1]; zero disables the
// class. Panic and transient probabilities are drawn once per task
// execution; straggler and core-loss probabilities once per worker per
// scheduler run.
type Config struct {
	// Seed makes the fault sequence reproducible.
	Seed int64

	// PanicProb is the per-task-execution probability of an injected panic.
	PanicProb float64
	// TransientProb is the per-task-execution probability of a retryable
	// transient failure.
	TransientProb float64
	// StragglerProb is the per-worker probability of being a straggler for
	// one run; StragglerSkew is the cycle multiplier applied to a straggling
	// worker's charges (values <= 1 default to 4).
	StragglerProb float64
	StragglerSkew float64
	// CoreLossProb is the per-worker probability of disappearing at run
	// start. The scheduler never loses its last surviving worker.
	CoreLossProb float64
	// NodeLossProb is the per-node probability, drawn once per chaos tick by
	// the shard router, that the whole node (its serve.Server shard) dies.
	// The router's chaos tick never kills the cluster's last live node;
	// Router.KillNode is the only way to stage total loss.
	NodeLossProb float64

	// StragglerWorkers and LostCores arm specific workers deterministically,
	// in addition to the probabilistic draws — tests use these to stage an
	// exact failure.
	StragglerWorkers []int
	LostCores        []int

	// AllocFailProb is the per-allocation-request probability that a memory
	// reservation charge fails with errs.ErrMemoryPressure, modelling a
	// governor denial (or, on real hardware, an mmap/brk failure) without
	// the budget actually being exhausted. Charges fail BEFORE any bytes are
	// accounted, so a retried allocation never double-charges.
	AllocFailProb float64

	// CrashProb is the per-durability-step probability that the process
	// "dies" at that step: the store aborts the checkpoint immediately,
	// leaving exactly the partial on-disk state a SIGKILL at that instant
	// would leave. Recovery must cope with whatever is on disk.
	CrashProb float64
	// TornWriteProb is the per-write probability that only a prefix of the
	// payload reaches disk while the write still reports success, modelling
	// a power cut mid-sector. The checksum catches it at read time.
	TornWriteProb float64
	// ChecksumFlipProb is the per-file probability of a silent single-byte
	// corruption after the checksum was computed, modelling bit rot or a
	// misdirected write. Only checksum validation at read time can catch it.
	ChecksumFlipProb float64

	// PanicSites, TransientSites and AllocFailSites override the class
	// probability for specific sites (a site is the morsel family name, e.g.
	// "clock-scan" or "agg-part"; allocation sites are charge labels like
	// "join-build" or "agg-table"). An entry of 0 shields that site entirely.
	PanicSites     map[string]float64
	TransientSites map[string]float64
	AllocFailSites map[string]float64
	// CrashSites, TornWriteSites and ChecksumFlipSites override the
	// durability-fault probabilities for specific sites (sites are store
	// step labels like "segment-payload", "manifest-write" or
	// "current-rename"). An entry of 0 shields that site entirely.
	CrashSites        map[string]float64
	TornWriteSites    map[string]float64
	ChecksumFlipSites map[string]float64

	// MaxFaults, when positive, caps the total number of injected faults:
	// after the budget is spent the injector goes quiet. Tests use it to
	// stage "fails twice, then recovers" sequences.
	MaxFaults int
}

// Event is one fired fault, in firing order.
type Event struct {
	// Seq is the 0-based position in the fault log.
	Seq int
	// Class is the fault category; Site the morsel family it hit ("" for
	// worker-level faults); Worker the simulated core involved.
	Class  Class
	Site   string
	Worker int
}

// Injector produces faults from a seeded source and logs every firing. All
// methods are safe for concurrent use; a nil *Injector is valid and injects
// nothing.
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	log    []Event
	counts map[Class]int
}

// New returns an Injector armed with cfg.
func New(cfg Config) *Injector {
	if cfg.StragglerSkew <= 1 {
		cfg.StragglerSkew = 4
	}
	return &Injector{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[Class]int),
	}
}

// Enabled reports whether the injector can fire at all.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	c := in.cfg
	return c.PanicProb > 0 || c.TransientProb > 0 || c.StragglerProb > 0 ||
		c.CoreLossProb > 0 || c.NodeLossProb > 0 || c.AllocFailProb > 0 ||
		c.CrashProb > 0 || c.TornWriteProb > 0 || c.ChecksumFlipProb > 0 ||
		len(c.StragglerWorkers) > 0 || len(c.LostCores) > 0 ||
		len(c.AllocFailSites) > 0 ||
		len(c.CrashSites) > 0 || len(c.TornWriteSites) > 0 || len(c.ChecksumFlipSites) > 0
}

// fire draws one fault with the given probability, honouring the fault
// budget, and logs it when it fires. Callers hold no lock.
func (in *Injector) fire(class Class, prob float64, site string, worker int) bool {
	if prob <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.MaxFaults > 0 && len(in.log) >= in.cfg.MaxFaults {
		return false
	}
	if prob < 1 && in.rng.Float64() >= prob {
		return false
	}
	in.record(class, site, worker)
	return true
}

// record appends one event. Callers hold in.mu.
func (in *Injector) record(class Class, site string, worker int) {
	in.log = append(in.log, Event{Seq: len(in.log), Class: class, Site: site, Worker: worker})
	in.counts[class]++
}

func siteProb(overrides map[string]float64, site string, def float64) float64 {
	if p, ok := overrides[site]; ok {
		return p
	}
	return def
}

// ShouldPanic reports whether the task executing at site on the given worker
// must panic. The scheduler calls it before the task body, so the panic has
// no partial effects.
func (in *Injector) ShouldPanic(site string, worker int) bool {
	if in == nil {
		return false
	}
	return in.fire(ClassPanic, siteProb(in.cfg.PanicSites, site, in.cfg.PanicProb), site, worker)
}

// TaskError returns an injected transient failure for the task at site on
// the given worker, or nil. The error wraps errs.ErrTransient.
func (in *Injector) TaskError(site string, worker int) error {
	if in == nil {
		return nil
	}
	if !in.fire(ClassTransient, siteProb(in.cfg.TransientSites, site, in.cfg.TransientProb), site, worker) {
		return nil
	}
	return fmt.Errorf("fault: injected transient at %s on worker %d: %w", site, worker, errs.ErrTransient)
}

// AllocError returns an injected allocation failure for the reservation
// charge at site on the given worker, or nil. The error wraps
// errs.ErrMemoryPressure; it fires before any bytes are accounted, so the
// caller's budget is untouched and a retry is safe.
func (in *Injector) AllocError(site string, worker int) error {
	if in == nil {
		return nil
	}
	if !in.fire(ClassAllocFail, siteProb(in.cfg.AllocFailSites, site, in.cfg.AllocFailProb), site, worker) {
		return nil
	}
	return fmt.Errorf("fault: injected alloc failure at %s on worker %d: %w", site, worker, errs.ErrMemoryPressure)
}

// ShouldCrash reports whether the process "dies" at the durability step
// named site. The store aborts the checkpoint on the spot, leaving the same
// partial on-disk state a SIGKILL at that instant would leave.
func (in *Injector) ShouldCrash(site string) bool {
	if in == nil {
		return false
	}
	return in.fire(ClassCrash, siteProb(in.cfg.CrashSites, site, in.cfg.CrashProb), site, -1)
}

// TornWrite reports whether the write at site is torn: only a prefix of the
// payload reaches disk while the write still reports success.
func (in *Injector) TornWrite(site string) bool {
	if in == nil {
		return false
	}
	return in.fire(ClassTornWrite, siteProb(in.cfg.TornWriteSites, site, in.cfg.TornWriteProb), site, -1)
}

// FlipChecksum reports whether the file written at site suffers a silent
// single-byte corruption after its checksum was computed.
func (in *Injector) FlipChecksum(site string) bool {
	if in == nil {
		return false
	}
	return in.fire(ClassChecksumFlip, siteProb(in.cfg.ChecksumFlipSites, site, in.cfg.ChecksumFlipProb), site, -1)
}

// WorkerSkew returns the cycle multiplier for the given worker in one run:
// the configured skew when the worker straggles, 1 otherwise.
func (in *Injector) WorkerSkew(worker int) float64 {
	if in == nil {
		return 1
	}
	for _, id := range in.cfg.StragglerWorkers {
		if id == worker {
			in.mu.Lock()
			in.record(ClassStraggler, "", worker)
			in.mu.Unlock()
			return in.cfg.StragglerSkew
		}
	}
	if in.fire(ClassStraggler, in.cfg.StragglerProb, "", worker) {
		return in.cfg.StragglerSkew
	}
	return 1
}

// LoseCore reports whether the given worker disappears for one run.
func (in *Injector) LoseCore(worker int) bool {
	if in == nil {
		return false
	}
	for _, id := range in.cfg.LostCores {
		if id == worker {
			in.mu.Lock()
			in.record(ClassCoreLoss, "", worker)
			in.mu.Unlock()
			return true
		}
	}
	return in.fire(ClassCoreLoss, in.cfg.CoreLossProb, "", worker)
}

// LoseNode reports whether the given node's whole shard disappears this
// chaos tick: NodeLossProb decides. The Worker field of the logged event
// carries the node index.
func (in *Injector) LoseNode(node int) bool {
	if in == nil {
		return false
	}
	return in.fire(ClassNodeLoss, in.cfg.NodeLossProb, "", node)
}

// Log returns a copy of the fault log in firing order.
func (in *Injector) Log() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}

// Counts returns the number of fired faults per class.
func (in *Injector) Counts() map[Class]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Class]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// CountsInt64 is Counts keyed by string, for metric snapshots.
func (in *Injector) CountsInt64() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[string(k)] = int64(v)
	}
	return out
}
