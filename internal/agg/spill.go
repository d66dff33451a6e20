package agg

import (
	"context"
	"strconv"

	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/sched"
	"hwstar/internal/trace"
)

// spilledAgg is the degraded execution Parallel falls back to when the group
// table does not fit the query's memory reservation: the input is
// hash-partitioned by group key into K fragments written to the simulated
// spill tier (priced by hw.Machine.SpillBandwidth), then each fragment is
// read back and aggregated into a small table that does fit. Partitions have
// disjoint group sets, so results concatenate without a merge — the same
// property the radix strategy exploits, applied one tier down the memory
// hierarchy. denial is the original over-budget error, returned verbatim
// when even spilling cannot fit.
func spilledAgg(ctx context.Context, keys, vals []int64, g int64, s *sched.Scheduler, morsel int, tableBytes int64, denial error, l *mem.Lease) (Result, error) {
	var res Result
	resv := s.Mem()
	K := mem.SpillFanout(tableBytes, resv.Available(), s.Workers())
	if K == 0 {
		return res, denial
	}
	res.Spilled = true
	mask := uint64(K - 1)
	trace.FromContext(ctx).Annotate("agg spilled: table %d B over budget, %d-way partitioned", tableBytes, K)

	// Phase 1: partition the input and stream it to the spill tier. The
	// scheduler's virtual-time loop runs morsels sequentially, so scattering
	// into shared partition buffers is safe.
	type part struct{ keys, vals []int64 }
	parts := make([]part, K)
	tasks := sched.Morsels(len(keys), morsel, "agg-spill-part", func(start, end int, w *sched.Worker) {
		for i := start; i < end; i++ {
			p := &parts[hashtab.Hash(keys[i])&mask]
			p.keys = append(p.keys, keys[i])
			p.vals = append(p.vals, vals[i])
		}
		n := int64(end - start)
		w.Charge(hw.Work{
			Name: "agg-spill-part", Tuples: n, ComputePerTuple: 4,
			SeqReadBytes:    n * tupleBytes,
			SpillWriteBytes: n * tupleBytes,
		})
	})
	if err := res.runPhase(ctx, "agg-spill-part", s, tasks); err != nil {
		return res, err
	}
	spillBytes := int64(len(keys)) * tupleBytes
	res.SpillBytes = spillBytes
	resv.NoteSpill(spillBytes)

	// Phase 2: one task per partition reads its fragment back and aggregates
	// into a budget-charged table. A denied charge (budget exhausted mid-run,
	// an injected allocation fault) returns before the fragment is touched,
	// and the scheduler re-runs the partition or fails the phase.
	partGroups := make([]*hashtab.Table, K)
	defer putAll(partGroups)
	aggTasks := make([]sched.Task, K)
	for p := 0; p < K; p++ {
		p := p
		aggTasks[p] = sched.Task{Name: "agg-spill-p" + strconv.Itoa(p), Site: "agg-spill-reduce", Socket: -1, Run: func(w *sched.Worker) {
			pt := &parts[p]
			if len(pt.keys) == 0 {
				return
			}
			pBytes := (g/int64(K) + 1) * groupEntryBytes
			if !w.Alloc("agg-spill-reduce", pBytes) {
				return
			}
			defer w.Mem().Uncharge(pBytes)
			local := tableAt(partGroups, p, capHint(g, len(pt.keys)))
			for i, k := range pt.keys {
				local.Add(k, pt.vals[i])
			}
			n := int64(len(pt.keys))
			w.Charge(hw.Work{
				Name: "agg-spill-reduce", Tuples: n, ComputePerTuple: 8,
				SpillReadBytes: n * tupleBytes,
				RandomReads:    n,
				RandomWS:       int64(local.Len()) * groupEntryBytes,
			})
		}}
	}
	if err := res.runPhase(ctx, "agg-spill-reduce", s, aggTasks); err != nil {
		return res, err
	}

	res.Groups = groupsOf(l, g, partGroups...)
	return res, nil
}
