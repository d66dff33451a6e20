package join

import (
	"context"
	"fmt"
	"strconv"

	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/sched"
	"hwstar/internal/trace"
)

// graceHashJoin is the degraded execution ParallelNPO falls back to when its
// hash table does not fit the query's memory reservation: both relations are
// hash-partitioned into K fragments written to the simulated spill tier
// (priced by hw.Machine.SpillBandwidth, like NUMA-remote traffic is priced by
// the interconnect), then each fragment pair is read back and joined with a
// small table that does fit. The real join still executes in memory — the
// spill is a cost-model event, consistent with how every hwstar operator
// models hardware it cannot touch from portable Go. denial is the original
// over-budget error, returned verbatim when even spilling cannot fit.
func graceHashJoin(ctx context.Context, in Input, s *sched.Scheduler, morsel int, tableBytes int64, denial error) (ParallelResult, error) {
	var out ParallelResult
	resv := s.Mem()
	K := mem.SpillFanout(tableBytes, resv.Available(), s.Workers())
	if K == 0 {
		return out, denial
	}
	out.Spilled = true
	mask := uint64(K - 1)
	trace.FromContext(ctx).Annotate("join spilled: table %d B over budget, %d-way grace-hash", tableBytes, K)

	type part struct{ bk, bv, pk, pv []int64 }
	parts := make([]part, K)
	// Partition phase: both relations stream through the workers and out to
	// the spill tier. The scheduler's virtual-time loop executes morsels
	// sequentially, so scattering into shared partition buffers is safe (the
	// same discipline the NPO build phase relies on).
	partTasks := func(keys, vals []int64, build bool, label string) []sched.Task {
		return sched.Morsels(len(keys), morsel, label, func(start, end int, w *sched.Worker) {
			for i := start; i < end; i++ {
				p := &parts[hashtab.Hash(keys[i])&mask]
				if build {
					p.bk = append(p.bk, keys[i])
					p.bv = append(p.bv, vals[i])
				} else {
					p.pk = append(p.pk, keys[i])
					p.pv = append(p.pv, vals[i])
				}
			}
			n := int64(end - start)
			w.Charge(hw.Work{
				Name: label, Tuples: n, ComputePerTuple: 4,
				SeqReadBytes:    n * tupleBytes,
				SpillWriteBytes: n * tupleBytes,
			})
		})
	}
	phase, err := runPhaseTraced(ctx, s, "grace-part-build", partTasks(in.BuildKeys, in.BuildVals, true, "grace-part-build"))
	out.addPhase(phase)
	if err != nil {
		return out, err
	}
	phase, err = runPhaseTraced(ctx, s, "grace-part-probe", partTasks(in.ProbeKeys, in.ProbeVals, false, "grace-part-probe"))
	out.addPhase(phase)
	if err != nil {
		return out, err
	}

	spillBytes := int64(len(in.BuildKeys)+len(in.ProbeKeys)) * tupleBytes
	out.SpillBytes = spillBytes
	resv.NoteSpill(spillBytes)

	// Join phase: one task per partition reads its fragments back from the
	// spill tier and joins with a budget-charged small table. Charge failures
	// (budget exhausted mid-run, injected allocation faults) cannot surface
	// through a sched.Task, so they are collected and raised after the phase.
	partials := make([]Result, K)
	chargeErrs := make([]error, K)
	tasks := make([]sched.Task, 0, K)
	for p := 0; p < K; p++ {
		p := p
		tasks = append(tasks, sched.Task{
			Name:   "grace-join-p" + strconv.Itoa(p),
			Site:   "grace-join",
			Socket: -1,
			Run: func(w *sched.Worker) {
				pt := &parts[p]
				if len(pt.bk) == 0 {
					return
				}
				htBytes := hashtab.BytesFor(len(pt.bk))
				if err := w.Mem().Charge("grace-join", w.ID, htBytes); err != nil {
					chargeErrs[p] = err
					return
				}
				defer w.Mem().Uncharge(htBytes)
				ht := hashtab.Get(len(pt.bk))
				defer hashtab.Put(ht)
				for i, k := range pt.bk {
					ht.Insert(k, pt.bv[i])
				}
				part := &partials[p]
				for i, k := range pt.pk {
					pv := pt.pv[i]
					ht.ProbeEach(k, func(bv int64) { part.add(bv, pv) })
				}
				rows := int64(len(pt.bk) + len(pt.pk))
				w.Charge(hw.Work{
					Name: "grace-join", Tuples: rows, ComputePerTuple: 6,
					SpillReadBytes: rows * tupleBytes,
					RandomReads:    rows, RandomWS: ht.Bytes(),
				})
			},
		})
	}
	phase, err = runPhaseTraced(ctx, s, "grace-join", tasks)
	out.addPhase(phase)
	if err != nil {
		return out, err
	}
	if err := firstChargeErr(chargeErrs); err != nil {
		return out, fmt.Errorf("join: grace-hash partition table denied: %w", err)
	}

	for _, p := range partials {
		out.Matches += p.Matches
		out.Checksum += p.Checksum
	}
	out.SimCycles = out.MakespanCycles
	return out, nil
}

// firstChargeErr returns the first per-partition charge failure, if any.
func firstChargeErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
