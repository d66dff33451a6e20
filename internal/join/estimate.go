package join

import (
	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
)

// Analytic cost estimation: the same Work descriptions the algorithms charge
// when they run, built from statistics alone. This is what a
// hardware-conscious optimizer calls at plan time (internal/planner); the
// estimates are exact for NPO variants and match the executed accounts of
// the radix join up to partition-size rounding.

// Stats summarizes a join input for estimation.
type Stats struct {
	BuildRows, ProbeRows int64
	// MissFrac is the fraction of probe tuples matching nothing.
	MissFrac float64
}

// EstimateNPO predicts the serial cycles of the no-partitioning join.
func EstimateNPO(m *hw.Machine, s Stats, ctx hw.ExecContext) float64 {
	ht := hashtab.BytesFor(int(s.BuildRows))
	build := hw.Work{Tuples: s.BuildRows, ComputePerTuple: 6,
		SeqReadBytes: s.BuildRows * tupleBytes,
		RandomReads:  s.BuildRows, RandomWS: ht}
	probe := hw.Work{Tuples: s.ProbeRows, ComputePerTuple: 6,
		SeqReadBytes: s.ProbeRows * tupleBytes,
		RandomReads:  s.ProbeRows, RandomWS: ht}
	return m.Cycles(build, ctx) + m.Cycles(probe, ctx)
}

// EstimateNPOPrefetch predicts the group-prefetched NPO.
func EstimateNPOPrefetch(m *hw.Machine, s Stats, ctx hw.ExecContext) float64 {
	ht := hashtab.BytesFor(int(s.BuildRows))
	build := hw.Work{Tuples: s.BuildRows, ComputePerTuple: 6,
		SeqReadBytes: s.BuildRows * tupleBytes,
		RandomReads:  s.BuildRows, RandomWS: ht, MLPBoost: gpMLPBoost}
	probe := hw.Work{Tuples: s.ProbeRows, ComputePerTuple: 7,
		SeqReadBytes: s.ProbeRows * tupleBytes,
		RandomReads:  s.ProbeRows, RandomWS: ht, MLPBoost: gpMLPBoost}
	return m.Cycles(build, ctx) + m.Cycles(probe, ctx)
}

// EstimateNPOBloom predicts the Bloom-filtered NPO given the expected probe
// miss fraction.
func EstimateNPOBloom(m *hw.Machine, s Stats, ctx hw.ExecContext) float64 {
	ht := hashtab.BytesFor(int(s.BuildRows))
	filterBytes := filterBytesFor(s.BuildRows)
	passed := int64(float64(s.ProbeRows) * (1 - s.MissFrac))
	total := 0.0
	total += m.Cycles(hw.Work{Tuples: s.BuildRows, ComputePerTuple: 6,
		SeqReadBytes: s.BuildRows * tupleBytes,
		RandomReads:  s.BuildRows, RandomWS: ht, MLPBoost: gpMLPBoost}, ctx)
	total += m.Cycles(hw.Work{Tuples: s.BuildRows, ComputePerTuple: 6,
		RandomReads: s.BuildRows, RandomWS: filterBytes, IndependentAccesses: true, HugePages: true}, ctx)
	total += m.Cycles(hw.Work{Tuples: s.ProbeRows, ComputePerTuple: 6,
		RandomReads: s.ProbeRows, RandomWS: filterBytes, IndependentAccesses: true, HugePages: true}, ctx)
	total += m.Cycles(hw.Work{Tuples: passed, ComputePerTuple: 7,
		SeqReadBytes: s.ProbeRows * tupleBytes,
		RandomReads:  passed, RandomWS: ht, MLPBoost: gpMLPBoost}, ctx)
	return total
}

// filterBytesFor mirrors bloom.New's sizing at the default 10 bits/key with
// 64-byte blocks.
func filterBytesFor(n int64) int64 {
	bits := n * 10
	blocks := (bits + 511) / 512
	if blocks == 0 {
		blocks = 1
	}
	return blocks * 64
}

// EstimateRadix predicts the serial radix join with auto-tuned options.
func EstimateRadix(m *hw.Machine, s Stats, ctx hw.ExecContext) float64 {
	opts := RadixOptions{}.resolve(m, int(s.BuildRows))
	passes := planPasses(opts)
	total := 0.0
	for _, bits := range passes {
		fanout := 1 << bits
		total += m.Cycles(partitionPassWork("est-part-build", s.BuildRows, fanout, m, opts.SWBuffers), ctx)
		total += m.Cycles(partitionPassWork("est-part-probe", s.ProbeRows, fanout, m, opts.SWBuffers), ctx)
	}
	partTuples := s.BuildRows
	if opts.TotalBits > 0 {
		partTuples = s.BuildRows >> uint(opts.TotalBits)
		if partTuples < 1 {
			partTuples = 1
		}
	}
	partHT := hashtab.BytesFor(int(partTuples))
	total += m.Cycles(hw.Work{Tuples: s.BuildRows, ComputePerTuple: 6,
		SeqReadBytes: s.BuildRows * tupleBytes,
		RandomReads:  s.BuildRows, RandomWS: partHT}, ctx)
	total += m.Cycles(hw.Work{Tuples: s.ProbeRows, ComputePerTuple: 6,
		SeqReadBytes: s.ProbeRows * tupleBytes,
		RandomReads:  s.ProbeRows, RandomWS: partHT}, ctx)
	return total
}
