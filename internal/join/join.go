// Package join implements the equi-join algorithms at the heart of the
// hardware-conscious-vs-oblivious debate the keynote cites (Balkesen et al.,
// ICDE 2013): a no-partitioning hash join that ignores the memory hierarchy,
// a parallel radix-partitioned hash join that is engineered for it, a
// sort-merge join, and a nested-loop reference. All algorithms are real
// implementations producing identical results; alongside the real execution
// they describe their memory behaviour to the hw machine model so
// experiments can report simulated cycles on arbitrary machine profiles.
package join

import (
	"fmt"

	"hwstar/internal/errs"
	"hwstar/internal/hw"
)

// Input is an equi-join input: build relation (keys+payload) and probe
// relation (keys+payload). The build side is conventionally the smaller one.
type Input struct {
	BuildKeys []int64
	BuildVals []int64
	ProbeKeys []int64
	ProbeVals []int64
}

// Validate reports an error when key and payload slices disagree.
func (in Input) Validate() error {
	if len(in.BuildKeys) != len(in.BuildVals) {
		return fmt.Errorf("join: build keys/vals length mismatch: %d vs %d: %w", len(in.BuildKeys), len(in.BuildVals), errs.ErrInvalidInput)
	}
	if len(in.ProbeKeys) != len(in.ProbeVals) {
		return fmt.Errorf("join: probe keys/vals length mismatch: %d vs %d: %w", len(in.ProbeKeys), len(in.ProbeVals), errs.ErrInvalidInput)
	}
	return nil
}

// tupleBytes is the in-memory width of one (key, payload) tuple.
const tupleBytes = 16

// Result summarizes a join execution. Following the methodology of the
// multicore join literature, matches are aggregated (count and checksum)
// rather than materialized, so the measurement isolates the join itself.
type Result struct {
	// Matches is the number of output tuples.
	Matches int64
	// Checksum aggregates matched payloads; algorithms producing the same
	// join must agree on it (it is order-insensitive).
	Checksum uint64
	// SimCycles is the simulated cycle cost when an account was provided.
	SimCycles float64
}

// merge folds one match into the result.
func (r *Result) add(buildVal, probeVal int64) {
	r.Matches++
	r.Checksum += uint64(buildVal) * 0x9E3779B97F4A7C15 >> 7
	r.Checksum += uint64(probeVal)
}

// Algorithm names a join implementation for experiment tables.
type Algorithm string

// Algorithm identifiers.
const (
	AlgNPO   Algorithm = "npo"   // no-partitioning hash join (hardware-oblivious)
	AlgRadix Algorithm = "radix" // parallel radix-partitioned hash join (hardware-conscious)
)

// AutoAlgorithm resolves the "auto" join choice for a build side of buildRows
// on machine m: radix once the build hash table (about 34 bytes a row) no
// longer fits the last-level cache, NPO while it does.
func AutoAlgorithm(m *hw.Machine, buildRows int) Algorithm {
	if int64(buildRows)*34 > m.LLC().SizeBytes {
		return AlgRadix
	}
	return AlgNPO
}
