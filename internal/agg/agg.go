// Package agg implements parallel GROUP-BY aggregation in three designs that
// span the hardware-consciousness spectrum the keynote describes:
//
//   - StrategyGlobal: all workers update one shared hash table behind atomic
//     operations — the straightforward "software star" design whose cache-line
//     ping-pong gets worse with every added core.
//   - StrategyLocalMerge: each worker aggregates morsels into a private table,
//     merged at the end — contention-free, but the merge grows with
//     (workers × groups) and private tables overflow the cache when the group
//     count is large.
//   - StrategyRadix: inputs are hash-partitioned by group key so each group
//     belongs to exactly one worker — no contention and cache-resident state,
//     at the price of a partitioning pass.
//
// All strategies execute real Go code producing identical results; the
// hardware cost of each design is charged to the simulated scheduler.
//
// Every group table is a hashtab.Table taken from its pool and returned when
// the aggregation ends, however it ends; the only Go map a query builds is
// Result.Groups, once, at its final size, and a leased query takes even that
// from its mem.Lease.
package agg

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"hwstar/internal/errs"
	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/sched"
	"hwstar/internal/trace"
)

// Strategy names an aggregation design.
type Strategy string

// Available strategies.
const (
	StrategyGlobal     Strategy = "global-atomic"
	StrategyLocalMerge Strategy = "local-merge"
	StrategyRadix      Strategy = "radix-partitioned"
)

// groupEntryBytes is the hash-table footprint per group (key + sum + flag,
// at 50% fill).
const groupEntryBytes = 2 * (8 + 8 + 1)

// tupleBytes is the input width per tuple (key + value).
const tupleBytes = 16

// Serial computes the reference aggregation: SUM(vals) GROUP BY keys. The
// table is pre-sized from a sampled cardinality estimate, so unique-heavy
// inputs skip every incremental rehash (each of which re-inserts all live
// groups) without low-cardinality inputs paying for a table sized to the row
// count (see BenchmarkSerialPresized / BenchmarkSerialUnsized for the delta).
func Serial(keys, vals []int64) map[int64]int64 {
	out := make(map[int64]int64, serialHint(keys))
	for i, k := range keys {
		out[k] += vals[i]
	}
	return out
}

// serialHint estimates a group-table capacity by counting distinct keys in a
// strided sample. A near-all-distinct sample means a unique-heavy input:
// presize to the row count. Otherwise presize to twice the sampled
// cardinality — an underestimate only costs a few rehashes of a still-small
// table, where an overestimate allocates and zeroes the worst case up front.
func serialHint(keys []int64) int {
	const sample = 1024
	n := len(keys)
	if n <= 2*sample {
		return n
	}
	stride := n / sample
	seen := make(map[int64]struct{}, sample)
	for i := 0; i < n; i += stride {
		seen[keys[i]] = struct{}{}
	}
	d := len(seen)
	if d*8 >= sample*7 {
		return n
	}
	return capHint(int64(2*d), n)
}

// capHint bounds a table capacity: the group count g, capped by the rows that
// will actually be inserted.
func capHint(g int64, rows int) int {
	if g > int64(rows) {
		g = int64(rows)
	}
	if g < 0 {
		g = 0
	}
	return int(g)
}

// Result is a parallel aggregation outcome.
type Result struct {
	// Groups maps each key to its aggregated sum.
	Groups map[int64]int64
	// Phases holds the schedule of each phase; MakespanCycles their sum.
	Phases         []sched.Result
	MakespanCycles float64
	// Spilled reports that the group table exceeded the query's memory
	// reservation and the aggregation degraded to the partitioned spill
	// path; SpillBytes is the simulated traffic written to the spill tier.
	Spilled    bool
	SpillBytes int64
}

func (r *Result) addPhase(s sched.Result) {
	r.Phases = append(r.Phases, s)
	r.MakespanCycles += s.MakespanCycles
}

// runPhase executes tasks with cancellation checked at morsel boundaries and
// folds the (possibly partial) schedule into the result. The phase reports
// into a named child span of the context's trace span (a no-op when the
// context carries none), so traces attribute cycles phase by phase.
func (r *Result) runPhase(ctx context.Context, name string, s *sched.Scheduler, tasks []sched.Task) error {
	ps := trace.FromContext(ctx).Child(name)
	phase, err := s.RunContext(trace.NewContext(ctx, ps), tasks)
	ps.AddCycles(phase.MakespanCycles)
	ps.End()
	r.addPhase(phase)
	return err
}

// Parallel aggregates keys/vals with the given strategy on scheduler s.
// Group cardinality is estimated from the data up front (exact, via one
// uncharged counting pass — a real system would use a sketch) and shared by
// the cost model, the map capacity hints, and the memory governor.
//
// When the scheduler carries a memory reservation, the group-table footprint
// is charged before execution. A denial (budget pressure or an injected
// allocation fault) degrades the aggregation to the partitioned spill path
// regardless of the requested strategy; only a simulated OOM kill (naive
// mode) or an unspillable budget aborts. Cancellation is checked at every
// morsel boundary.
//
// Result.Groups comes from l (see mem.Lease.Map) and is valid until l's last
// Release; a nil l makes it.
func Parallel(ctx context.Context, keys, vals []int64, strat Strategy, s *sched.Scheduler, m *hw.Machine, morsel int, l *mem.Lease) (Result, error) {
	if len(keys) != len(vals) {
		return Result{}, fmt.Errorf("agg: keys/vals length mismatch: %d vs %d: %w", len(keys), len(vals), errs.ErrInvalidInput)
	}
	switch strat {
	case StrategyGlobal, StrategyLocalMerge, StrategyRadix:
	default:
		return Result{}, fmt.Errorf("agg: unknown strategy %q: %w", strat, errs.ErrInvalidInput)
	}
	g := distinct(keys)
	if g == 0 {
		g = 1
	}
	resv := s.Mem()
	tableBytes := g * groupEntryBytes
	if err := resv.Charge("agg-table", -1, tableBytes); err != nil {
		if errors.Is(err, errs.ErrMemoryPressure) {
			return spilledAgg(ctx, keys, vals, g, s, morsel, tableBytes, err, l)
		}
		return Result{}, fmt.Errorf("agg: group table: %w", err)
	}
	defer resv.Uncharge(tableBytes)
	switch strat {
	case StrategyGlobal:
		return globalAtomic(ctx, keys, vals, g, s, morsel, l)
	case StrategyLocalMerge:
		return localMerge(ctx, keys, vals, g, s, morsel, l)
	default:
		return radixPartitioned(ctx, keys, vals, g, s, m, morsel, l)
	}
}

func morselOrDefault(m int) int {
	if m <= 0 {
		return 1 << 14
	}
	return m
}

// distinct counts group cardinality (modelling aid, not charged). The set
// cannot be sized before its answer is known, so it starts small and moves to
// the next capacity class each time it fills; both tables come from the pool.
func distinct(keys []int64) int64 {
	n := 1024
	set := hashtab.Get(n)
	defer func() { hashtab.Put(set) }()
	for _, k := range keys {
		set.Add(k, 0)
		if set.Len() > n {
			n *= 2
			next := hashtab.Get(n)
			set.Range(func(k, _ int64) { next.Add(k, 0) })
			hashtab.Put(set)
			set = next
		}
	}
	return int64(set.Len())
}

// tableAt empties tables[i] and returns it, taking it from the pool sized for
// n groups on first use. A task that is dispatched again after a panic gets
// the table of its first attempt back, emptied, so nothing is counted twice.
func tableAt(tables []*hashtab.Table, i, n int) *hashtab.Table {
	if tables[i] == nil {
		tables[i] = hashtab.Get(n)
	} else {
		tables[i].Reset()
	}
	return tables[i]
}

// putAll returns the tables a phase took (nil where a task never ran).
func putAll(tables []*hashtab.Table) {
	for _, t := range tables {
		if t != nil {
			hashtab.Put(t)
		}
	}
}

// groupsOf builds the result map in l, once and at its final size g, from
// tables whose key sets are disjoint.
func groupsOf(l *mem.Lease, g int64, tables ...*hashtab.Table) map[int64]int64 {
	groups := l.Map(int(g))
	for _, t := range tables {
		if t != nil {
			t.Range(func(k, v int64) { groups[k] = v })
		}
	}
	return groups
}

// globalAtomic: one shared table, every update an atomic read-modify-write.
// The contention model charges each update an extra penalty that grows with
// the number of cores hammering the same lines: with G groups and P active
// cores, the probability of a concurrent update to the same entry scales
// with P/G, and each conflict costs a cache-line transfer.
func globalAtomic(ctx context.Context, keys, vals []int64, g int64, s *sched.Scheduler, morsel int, l *mem.Lease) (Result, error) {
	var res Result
	groups := hashtab.Get(capHint(g, len(keys)))
	defer hashtab.Put(groups)
	tableBytes := g * groupEntryBytes
	// A conflicting atomic update pays a cross-core line transfer plus
	// serialization on the hot line.
	const lineTransferCycles = 120
	tasks := sched.Morsels(len(keys), morsel, "agg-global", func(start, end int, w *sched.Worker) {
		for i := start; i < end; i++ {
			groups.Add(keys[i], vals[i])
		}
		n := int64(end - start)
		p := float64(w.TotalWorkers())
		conflictProb := (p - 1) / float64(g)
		if conflictProb > 1 {
			conflictProb = 1
		}
		if conflictProb < 0 {
			conflictProb = 0
		}
		w.Charge(hw.Work{
			Name:            "agg-global",
			Tuples:          n,
			ComputePerTuple: 8 + conflictProb*lineTransferCycles,
			SeqReadBytes:    n * tupleBytes,
			RandomReads:     n,
			RandomWS:        tableBytes,
		})
	})
	if err := res.runPhase(ctx, "agg-global", s, tasks); err != nil {
		return res, err
	}
	res.Groups = groupsOf(l, g, groups)
	return res, nil
}

// localMerge: per-morsel private tables, then a serial-per-partition merge.
// One table per morsel, not per worker, is the design the strategy models
// (the merge costs chunks x groups), and it is what lets a morsel that is
// dispatched twice overwrite its first attempt instead of adding to it.
func localMerge(ctx context.Context, keys, vals []int64, g int64, s *sched.Scheduler, morsel int, l *mem.Lease) (Result, error) {
	var res Result
	msz := morselOrDefault(morsel)
	nChunks := (len(keys) + msz - 1) / msz
	locals := make([]*hashtab.Table, nChunks)
	defer putAll(locals)
	localBytes := g * groupEntryBytes // worst case: every group in every local table

	tasks := sched.Morsels(len(keys), msz, "agg-local", func(start, end int, w *sched.Worker) {
		local := tableAt(locals, start/msz, capHint(g, end-start))
		for i := start; i < end; i++ {
			local.Add(keys[i], vals[i])
		}
		n := int64(end - start)
		w.Charge(hw.Work{
			Name:            "agg-local",
			Tuples:          n,
			ComputePerTuple: 8,
			SeqReadBytes:    n * tupleBytes,
			RandomReads:     n,
			RandomWS:        localBytes,
		})
	})
	if err := res.runPhase(ctx, "agg-local", s, tasks); err != nil {
		return res, err
	}

	// Merge phase: a single worker folds all local tables (the simple merge
	// used by many engines; its cost ∝ chunks × groups is exactly the
	// scalability trap this strategy carries).
	groups := hashtab.Get(int(g))
	defer hashtab.Put(groups)
	var merged int64
	for _, local := range locals {
		local.Range(groups.Add)
		merged += int64(local.Len())
	}
	mergeTask := []sched.Task{{Name: "agg-merge", Socket: -1, Run: func(w *sched.Worker) {
		w.Charge(hw.Work{
			Name:            "agg-merge",
			Tuples:          merged,
			ComputePerTuple: 8,
			RandomReads:     merged,
			RandomWS:        g * groupEntryBytes,
		})
	}}}
	if err := res.runPhase(ctx, "agg-merge", s, mergeTask); err != nil {
		return res, err
	}
	res.Groups = groupsOf(l, g, groups)
	return res, nil
}

// radixPartitioned: partition input by group-key hash so each partition's
// groups are disjoint; one task aggregates each partition into a private,
// cache-sized table; results concatenate without merging.
func radixPartitioned(ctx context.Context, keys, vals []int64, g int64, s *sched.Scheduler, m *hw.Machine, morsel int, l *mem.Lease) (Result, error) {
	var res Result
	// Fan-out chosen so a partition's group state fits in half the L2 AND
	// phase 2 has enough tasks to occupy (and balance across) all workers.
	target := int64(128 << 10)
	if m != nil && len(m.Caches) >= 2 {
		target = m.Caches[1].SizeBytes / 2
	}
	bits := 0
	for g*groupEntryBytes>>uint(bits) > target && bits < 16 {
		bits++
	}
	for 1<<bits < 4*s.Workers() && bits < 16 {
		bits++
	}
	fanout := 1 << bits
	mask := uint64(fanout - 1)

	// Phase 1: partition (real scatter, charged per morsel).
	type part struct{ keys, vals []int64 }
	msz := morselOrDefault(morsel)
	nChunks := (len(keys) + msz - 1) / msz
	chunkParts := make([][]part, nChunks)
	tasks := sched.Morsels(len(keys), msz, "agg-part", func(start, end int, w *sched.Worker) {
		ps := make([]part, fanout)
		for i := start; i < end; i++ {
			h := hashtab.Hash(keys[i]) & mask
			ps[h].keys = append(ps[h].keys, keys[i])
			ps[h].vals = append(ps[h].vals, vals[i])
		}
		chunkParts[start/msz] = ps
		n := int64(end - start)
		work := hw.Work{
			Name:            "agg-part",
			Tuples:          n,
			ComputePerTuple: 4,
			SeqReadBytes:    n * tupleBytes,
			SeqWriteBytes:   n * tupleBytes,
		}
		if m != nil && fanout > m.TLBEntries {
			work.SeqWriteBytes = 0
			work.RandomReads = n
			work.RandomWS = n * tupleBytes
		}
		w.Charge(work)
	})
	if err := res.runPhase(ctx, "agg-part", s, tasks); err != nil {
		return res, err
	}

	// Phase 2: aggregate each partition.
	partGroups := make([]*hashtab.Table, fanout)
	defer putAll(partGroups)
	aggTasks := make([]sched.Task, fanout)
	for p := 0; p < fanout; p++ {
		p := p
		aggTasks[p] = sched.Task{Name: "agg-p" + strconv.Itoa(p), Site: "agg-reduce", Socket: -1, Run: func(w *sched.Worker) {
			var n int64
			for _, cp := range chunkParts {
				n += int64(len(cp[p].keys))
			}
			// A partition holds g/fanout groups on average but the table
			// cannot grow, so it is sized for the most it could hold.
			local := tableAt(partGroups, p, capHint(g, int(n)))
			for _, cp := range chunkParts {
				for i, k := range cp[p].keys {
					local.Add(k, cp[p].vals[i])
				}
			}
			w.Charge(hw.Work{
				Name:            "agg-reduce",
				Tuples:          n,
				ComputePerTuple: 8,
				SeqReadBytes:    n * tupleBytes,
				RandomReads:     n,
				RandomWS:        int64(local.Len()) * groupEntryBytes,
			})
		}}
	}
	if err := res.runPhase(ctx, "agg-reduce", s, aggTasks); err != nil {
		return res, err
	}

	res.Groups = groupsOf(l, g, partGroups...)
	return res, nil
}
