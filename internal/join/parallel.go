package join

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"hwstar/internal/errs"
	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
	"hwstar/internal/sched"
	"hwstar/internal/trace"
)

// ParallelResult is a parallel join outcome: the (identical) join result
// plus the simulated schedule of each phase. MakespanCycles is the
// end-to-end parallel runtime, including the barrier between phases.
type ParallelResult struct {
	Result
	Phases         []sched.Result
	MakespanCycles float64
	// Spilled reports that the join exceeded its memory reservation and
	// degraded to the grace-hash spill path; SpillBytes is the simulated
	// traffic written to the spill tier.
	Spilled    bool
	SpillBytes int64
}

// addPhase appends a phase schedule and extends the makespan (phases are
// separated by barriers, as in the real algorithms).
func (r *ParallelResult) addPhase(s sched.Result) {
	r.Phases = append(r.Phases, s)
	r.MakespanCycles += s.MakespanCycles
}

// runPhaseTraced executes one phase's tasks under a named child span of the
// context's trace span (a no-op when the context carries none), attributing
// the phase makespan to the span so a trace decomposes the join's cost phase
// by phase — with the scheduler's per-worker breakdown beneath it.
func runPhaseTraced(ctx context.Context, s *sched.Scheduler, name string, tasks []sched.Task) (sched.Result, error) {
	ps := trace.FromContext(ctx).Child(name)
	res, err := s.RunContext(trace.NewContext(ctx, ps), tasks)
	ps.AddCycles(res.MakespanCycles)
	ps.End()
	return res, err
}

// ParallelNPO runs the no-partitioning hash join with all workers sharing
// one global hash table: morsels of the build relation insert concurrently,
// then morsels of the probe relation probe. Its scalability is limited by
// every worker random-accessing the same DRAM-resident table. Cancellation
// is checked at every morsel boundary; a cancelled context returns the
// context's error with the partial schedule already accounted.
//
// When the scheduler carries a memory reservation, the table footprint is
// charged before building. A denial (budget pressure or an injected
// allocation fault) degrades the join to the grace-hash spill path instead
// of growing unbounded; only a simulated OOM kill (naive mode) or an
// unspillable budget aborts.
func ParallelNPO(ctx context.Context, in Input, s *sched.Scheduler, morsel int) (ParallelResult, error) {
	if err := in.Validate(); err != nil {
		return ParallelResult{}, err
	}
	var out ParallelResult
	resv := s.Mem()
	tableBytes := hashtab.BytesFor(len(in.BuildKeys))
	if err := resv.Charge("join-build", -1, tableBytes); err != nil {
		if errors.Is(err, errs.ErrMemoryPressure) {
			return graceHashJoin(ctx, in, s, morsel, tableBytes, err)
		}
		return out, fmt.Errorf("join: build table: %w", err)
	}
	defer resv.Uncharge(tableBytes)
	ht := hashtab.Get(len(in.BuildKeys))
	defer hashtab.Put(ht)

	buildTasks := sched.Morsels(len(in.BuildKeys), morsel, "npo-build", func(start, end int, w *sched.Worker) {
		for i := start; i < end; i++ {
			ht.Insert(in.BuildKeys[i], in.BuildVals[i])
		}
		n := int64(end - start)
		w.Charge(hw.Work{
			Name: "npo-build", Tuples: n, ComputePerTuple: 6,
			SeqReadBytes: n * tupleBytes,
			RandomReads:  n, RandomWS: ht.Bytes(),
		})
	})
	phase, err := runPhaseTraced(ctx, s, "npo-build", buildTasks)
	out.addPhase(phase)
	if err != nil {
		return out, err
	}

	// Probe morsels accumulate into per-task partial results, merged after
	// the phase (no shared mutable aggregation state).
	msz := morselOrDefault(morsel)
	partials := make([]Result, (len(in.ProbeKeys)+msz-1)/msz)
	probeTasks := sched.Morsels(len(in.ProbeKeys), msz, "npo-probe", func(start, end int, w *sched.Worker) {
		part := &Result{}
		for i := start; i < end; i++ {
			pv := in.ProbeVals[i]
			ht.ProbeEach(in.ProbeKeys[i], func(bv int64) { part.add(bv, pv) })
		}
		partials[start/msz] = *part
		n := int64(end - start)
		w.Charge(hw.Work{
			Name: "npo-probe", Tuples: n, ComputePerTuple: 6,
			SeqReadBytes: n * tupleBytes,
			RandomReads:  n, RandomWS: ht.Bytes(),
		})
	})
	phase, err = runPhaseTraced(ctx, s, "npo-probe", probeTasks)
	out.addPhase(phase)
	if err != nil {
		return out, err
	}

	for _, p := range partials {
		out.Matches += p.Matches
		out.Checksum += p.Checksum
	}
	out.SimCycles = out.MakespanCycles
	return out, nil
}

func morselOrDefault(m int) int {
	if m <= 0 {
		return 1 << 14
	}
	return m
}

// ParallelRadix runs the parallel radix-partitioned hash join: workers
// partition disjoint chunks of both relations into thread-local partitioned
// buffers (phase 1), then each partition — assembled from all chunks — is
// joined by one task with a cache-resident table (phase 2). Partition-level
// tasks make skew visible as load imbalance rather than as contention.
// Cancellation is checked at every morsel/partition boundary.
func ParallelRadix(ctx context.Context, in Input, opts RadixOptions, s *sched.Scheduler, m *hw.Machine, morsel int) (ParallelResult, error) {
	if err := in.Validate(); err != nil {
		return ParallelResult{}, err
	}
	var out ParallelResult
	if len(in.BuildKeys) == 0 {
		return out, nil
	}
	opts = opts.resolve(m, len(in.BuildKeys))
	passes := planPasses(opts)
	fanout := 1 << opts.TotalBits

	// Phase 1: chunk-local partitioning. The physical scatter happens once
	// per relation chunk; the modelled cost reflects the pass structure
	// (multi-pass or software-buffered) the options describe.
	partitionChunks := func(keys, vals []int64, label string) ([]partitioned, error) {
		msz := morselOrDefault(morsel)
		nChunks := (len(keys) + msz - 1) / msz
		chunks := make([]partitioned, max(nChunks, 0))
		tasks := sched.Morsels(len(keys), msz, label, func(start, end int, w *sched.Worker) {
			chunks[start/msz] = radixPartition(keys[start:end], vals[start:end], opts.TotalBits, 0)
			n := int64(end - start)
			for pi, bits := range passes {
				w.Charge(partitionPassWork(label+"-pass"+strconv.Itoa(pi+1), n, 1<<bits, m, opts.SWBuffers))
			}
		})
		phase, err := runPhaseTraced(ctx, s, label, tasks)
		out.addPhase(phase)
		return chunks, err
	}
	buildChunks, err := partitionChunks(in.BuildKeys, in.BuildVals, "radix-part-build")
	if err != nil {
		return out, err
	}
	probeChunks, err := partitionChunks(in.ProbeKeys, in.ProbeVals, "radix-part-probe")
	if err != nil {
		return out, err
	}

	// Phase 2: one task per partition. Partition tables are cache-sized by
	// construction, so a reservation denial here (budget exhausted, injected
	// allocation fault) does not spill — there is nothing smaller to degrade
	// to: the partition returns untouched, and the scheduler re-runs it or
	// fails the phase.
	partials := make([]Result, fanout)
	tasks := make([]sched.Task, 0, fanout)
	for p := 0; p < fanout; p++ {
		p := p
		tasks = append(tasks, sched.Task{
			Name:   "radix-join-p" + strconv.Itoa(p),
			Site:   "radix-join",
			Socket: -1,
			Run: func(w *sched.Worker) {
				part := &partials[p]
				var buildRows, probeRows int64
				for _, c := range buildChunks {
					bk, _ := c.partition(p)
					buildRows += int64(len(bk))
				}
				if buildRows == 0 {
					return
				}
				htBytes := hashtab.BytesFor(int(buildRows))
				if !w.Alloc("radix-join", htBytes) {
					return
				}
				defer w.Mem().Uncharge(htBytes)
				ht := hashtab.Get(int(buildRows))
				defer hashtab.Put(ht)
				for _, c := range buildChunks {
					bk, bv := c.partition(p)
					for i, k := range bk {
						ht.Insert(k, bv[i])
					}
				}
				for _, c := range probeChunks {
					pk, pv := c.partition(p)
					probeRows += int64(len(pk))
					for i, k := range pk {
						val := pv[i]
						ht.ProbeEach(k, func(bv int64) { part.add(bv, val) })
					}
				}
				w.Charge(hw.Work{
					Name: "radix-join", Tuples: buildRows + probeRows, ComputePerTuple: 6,
					SeqReadBytes: (buildRows + probeRows) * tupleBytes,
					RandomReads:  buildRows + probeRows, RandomWS: ht.Bytes(),
				})
			},
		})
	}
	phase, err := runPhaseTraced(ctx, s, "radix-join", tasks)
	out.addPhase(phase)
	if err != nil {
		return out, err
	}

	for _, p := range partials {
		out.Matches += p.Matches
		out.Checksum += p.Checksum
	}
	out.SimCycles = out.MakespanCycles
	return out, nil
}
