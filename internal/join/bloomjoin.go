package join

import (
	"hwstar/internal/bloom"
	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
)

// NPOBloom is the no-partitioning hash join with semi-join reduction,
// layered on the group-prefetching probe loop (there is no reason to give
// up miss overlap when adding a filter): a blocked Bloom filter built
// alongside the hash table rejects non-matching probes with one touch of a
// small (usually LLC-resident) structure, so only probable matches pay the
// walk of the big table. The win scales with the probe miss rate — the
// common case in selective multi-way join plans.
func NPOBloom(in Input, acct *hw.Account) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	var res Result

	ht := hashtab.Get(len(in.BuildKeys))
	defer hashtab.Put(ht)
	filter := bloom.New(len(in.BuildKeys), 0)
	for i, k := range in.BuildKeys {
		ht.Insert(k, in.BuildVals[i])
		filter.Add(k)
	}
	if acct != nil {
		acct.Charge(hw.Work{
			Name:            "npo-bloom-build",
			Tuples:          int64(len(in.BuildKeys)),
			ComputePerTuple: 6,
			SeqReadBytes:    int64(len(in.BuildKeys)) * tupleBytes,
			RandomReads:     int64(len(in.BuildKeys)),
			RandomWS:        ht.Bytes(),
			MLPBoost:        gpMLPBoost,
		})
		acct.Charge(filter.ProbeWork("npo-bloom-filter-build", int64(len(in.BuildKeys))))
	}

	// Group-structured probe: stage 1 checks the filter for the whole group
	// and computes surviving slots; stage 2 walks only the survivors.
	var slots [prefetchGroup]uint64
	var live [prefetchGroup]int32
	var passed int64
	n := len(in.ProbeKeys)
	for start := 0; start < n; start += prefetchGroup {
		end := start + prefetchGroup
		if end > n {
			end = n
		}
		ln := 0
		for i := start; i < end; i++ {
			if filter.Contains(in.ProbeKeys[i]) {
				slots[ln] = ht.Slot(in.ProbeKeys[i])
				live[ln] = int32(i)
				ln++
			}
		}
		passed += int64(ln)
		for g := 0; g < ln; g++ {
			i := live[g]
			pv := in.ProbeVals[i]
			ht.ProbeFrom(slots[g], in.ProbeKeys[i], func(bv int64) { res.add(bv, pv) })
		}
	}
	if acct != nil {
		// Every probe touches the filter; only survivors walk the table.
		acct.Charge(filter.ProbeWork("npo-bloom-check", int64(len(in.ProbeKeys))))
		acct.Charge(hw.Work{
			Name:            "npo-bloom-probe",
			Tuples:          passed,
			ComputePerTuple: 7,
			SeqReadBytes:    int64(len(in.ProbeKeys)) * tupleBytes,
			RandomReads:     passed,
			RandomWS:        ht.Bytes(),
			MLPBoost:        gpMLPBoost,
		})
		res.SimCycles = acct.TotalCycles()
	}
	return res, nil
}
