package join

import (
	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
)

// prefetchGroup is the batch size of the group-prefetching probe loop: big
// enough to expose independent misses, small enough for its state to stay
// in registers/L1.
const prefetchGroup = 16

// gpMLPBoost is the memory-level-parallelism improvement group prefetching
// achieves over a naive dependent probe loop (the 2–3× reported for GP/AMAC
// restructurings).
const gpMLPBoost = 2.5

// NPOPrefetch is the no-partitioning hash join with a group-prefetching
// probe loop: instead of probing one tuple at a time (hash → load → walk),
// it processes tuples in groups, first computing every group member's slot
// (the stage a real implementation issues prefetches from), then walking the
// groups' chains. This restructuring is the middle ground the
// hardware-conscious debate identified: it keeps the shared table but stops
// serializing its cache misses.
func NPOPrefetch(in Input, acct *hw.Account) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	var res Result

	ht := hashtab.Get(len(in.BuildKeys))
	defer hashtab.Put(ht)
	for i, k := range in.BuildKeys {
		ht.Insert(k, in.BuildVals[i])
	}
	if acct != nil {
		acct.Charge(hw.Work{
			Name:            "npo-gp-build",
			Tuples:          int64(len(in.BuildKeys)),
			ComputePerTuple: 6,
			SeqReadBytes:    int64(len(in.BuildKeys)) * tupleBytes,
			RandomReads:     int64(len(in.BuildKeys)),
			RandomWS:        ht.Bytes(),
			MLPBoost:        gpMLPBoost, // inserts batch the same way
		})
	}

	// Group-structured probe: stage 1 computes slots for the whole group
	// (issuing prefetches in a real system), stage 2 walks them.
	var slots [prefetchGroup]uint64
	n := len(in.ProbeKeys)
	for start := 0; start < n; start += prefetchGroup {
		end := start + prefetchGroup
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			slots[i-start] = ht.Slot(in.ProbeKeys[i])
		}
		for i := start; i < end; i++ {
			pv := in.ProbeVals[i]
			ht.ProbeFrom(slots[i-start], in.ProbeKeys[i], func(bv int64) { res.add(bv, pv) })
		}
	}
	if acct != nil {
		acct.Charge(hw.Work{
			Name:            "npo-gp-probe",
			Tuples:          int64(n),
			ComputePerTuple: 7, // the extra staging costs a cycle per tuple
			SeqReadBytes:    int64(n) * tupleBytes,
			RandomReads:     int64(n),
			RandomWS:        ht.Bytes(),
			MLPBoost:        gpMLPBoost,
		})
		res.SimCycles = acct.TotalCycles()
	}
	return res, nil
}
