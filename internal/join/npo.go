package join

import (
	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
)

// NPO executes the no-partitioning hash join: build one table over the whole
// build relation, stream the probe relation against it. This is the
// "hardware-oblivious" contender — it trusts the cache hierarchy and
// out-of-order execution to hide the random accesses its shared table takes,
// which works while the table fits in cache and degrades into a
// DRAM-latency-bound random walk once it does not.
//
// acct may be nil to skip simulated-cost accounting.
func NPO(in Input, acct *hw.Account) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	var res Result

	// Build phase: one insert per build tuple, each a random access into
	// the table.
	ht := hashtab.Get(len(in.BuildKeys))
	defer hashtab.Put(ht)
	for i, k := range in.BuildKeys {
		ht.Insert(k, in.BuildVals[i])
	}
	if acct != nil {
		acct.Charge(hw.Work{
			Name:            "npo-build",
			Tuples:          int64(len(in.BuildKeys)),
			ComputePerTuple: 6, // hash + store + occupancy check
			SeqReadBytes:    int64(len(in.BuildKeys)) * tupleBytes,
			RandomReads:     int64(len(in.BuildKeys)),
			RandomWS:        ht.Bytes(),
		})
	}

	// Probe phase: stream probe tuples, one random access each.
	for i, k := range in.ProbeKeys {
		pv := in.ProbeVals[i]
		ht.ProbeEach(k, func(bv int64) { res.add(bv, pv) })
	}
	if acct != nil {
		acct.Charge(hw.Work{
			Name:            "npo-probe",
			Tuples:          int64(len(in.ProbeKeys)),
			ComputePerTuple: 6,
			SeqReadBytes:    int64(len(in.ProbeKeys)) * tupleBytes,
			RandomReads:     int64(len(in.ProbeKeys)),
			RandomWS:        ht.Bytes(),
		})
		res.SimCycles = acct.TotalCycles()
	}
	return res, nil
}

// NestedLoop is the O(n·m) reference implementation used to validate every
// other algorithm on small inputs.
func NestedLoop(in Input, acct *hw.Account) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	for i, bk := range in.BuildKeys {
		for j, pk := range in.ProbeKeys {
			if bk == pk {
				res.add(in.BuildVals[i], in.ProbeVals[j])
			}
		}
	}
	if acct != nil {
		n, m := int64(len(in.BuildKeys)), int64(len(in.ProbeKeys))
		acct.Charge(hw.Work{
			Name:            "nested-loop",
			Tuples:          n * m,
			ComputePerTuple: 2,
			SeqReadBytes:    n * m * tupleBytes,
		})
		res.SimCycles = acct.TotalCycles()
	}
	return res, nil
}
