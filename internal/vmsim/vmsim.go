// Package vmsim models the virtualization pressures the keynote identifies:
// a consolidated machine where a database shares hardware with noisy
// neighbours it cannot see. The simulator injects three canonical
// disturbances — CPU steal time, cache pollution, and memory-bandwidth
// contention — into query executions and reports the resulting latency
// distribution, making "performance predictability" a measurable quantity
// (tail-to-median ratios) rather than an anecdote. A reserved-resources mode
// models the isolation countermeasure.
package vmsim

import (
	"fmt"
	"math/rand"

	"hwstar/internal/hw"
	"hwstar/internal/metrics"
)

// Interference parameterizes the neighbours' behaviour. All fields are
// probabilities or multipliers per query execution.
type Interference struct {
	// StealProb is the chance a query's timeslice is stolen by another
	// tenant's vCPU; a stolen slice adds StealPenalty × base latency.
	StealProb    float64
	StealPenalty float64
	// PollutionProb is the chance the tenant's cache-resident state was
	// evicted by a neighbour before the query ran; a polluted run raises
	// the memory interference factor to PollutionFactor.
	PollutionProb   float64
	PollutionFactor float64
	// BandwidthFactor is the steady-state memory-bandwidth inflation from
	// co-running tenants (1 = idle machine).
	BandwidthFactor float64
}

// Validate reports an error for out-of-range parameters.
func (i Interference) Validate() error {
	if i.StealProb < 0 || i.StealProb > 1 || i.PollutionProb < 0 || i.PollutionProb > 1 {
		return fmt.Errorf("vmsim: probabilities must be in [0,1]: %+v", i)
	}
	if i.StealPenalty < 0 || (i.PollutionProb > 0 && i.PollutionFactor < 1) || i.BandwidthFactor < 1 {
		return fmt.Errorf("vmsim: penalties must be non-negative and factors >= 1: %+v", i)
	}
	return nil
}

// None returns an undisturbed machine.
func None() Interference { return Interference{PollutionFactor: 1, BandwidthFactor: 1} }

// Light models a moderately consolidated host.
func Light() Interference {
	return Interference{
		StealProb: 0.02, StealPenalty: 1.0,
		PollutionProb: 0.10, PollutionFactor: 1.5,
		BandwidthFactor: 1.2,
	}
}

// Heavy models an oversubscribed host.
func Heavy() Interference {
	return Interference{
		StealProb: 0.15, StealPenalty: 3.0,
		PollutionProb: 0.40, PollutionFactor: 2.5,
		BandwidthFactor: 1.8,
	}
}

// Isolated applies the countermeasure to an interference level: pinned cores
// eliminate steal, cache partitioning (way partitioning / page colouring)
// eliminates pollution; only the shared memory bus remains.
func Isolated(i Interference) Interference {
	return Interference{PollutionFactor: 1, BandwidthFactor: i.BandwidthFactor}
}

// QuerySpec is the work of one query execution, priced per run under the
// disturbance drawn for that run.
type QuerySpec struct {
	Work hw.Work
}

// RunDistribution executes n queries of the given spec on machine m under
// interference inter and returns the latency histogram (in cycles). The
// random draws are seeded and deterministic.
func RunDistribution(m *hw.Machine, spec QuerySpec, inter Interference, n int, seed int64) (*metrics.Histogram, error) {
	if err := inter.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("vmsim: need a positive query count, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	hist := metrics.NewHistogram()
	for q := 0; q < n; q++ {
		factor := inter.BandwidthFactor
		if inter.PollutionProb > 0 && rng.Float64() < inter.PollutionProb {
			// Pollution severity varies with how much the neighbour touched:
			// draw the factor uniformly up to the configured maximum.
			f := 1 + rng.Float64()*(inter.PollutionFactor-1)
			if f > factor {
				factor = f
			}
		}
		ctx := hw.ExecContext{ActiveCoresOnSocket: 1, InterferenceFactor: factor}
		lat := m.Cycles(spec.Work, ctx)
		if inter.StealProb > 0 && rng.Float64() < inter.StealProb {
			// Steal time is bursty: exponentially distributed around the
			// configured penalty.
			lat *= 1 + rng.ExpFloat64()*inter.StealPenalty
		}
		hist.Record(lat)
	}
	return hist, nil
}

// Predictability summarizes a latency distribution the way SLO discussions
// do: tail-to-median ratios.
type Predictability struct {
	P50, P95, P99, P999 float64
}

// Summarize extracts the predictability profile from a latency histogram.
func Summarize(h *metrics.Histogram) Predictability {
	return Predictability{
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}

// TailRatio returns p99/p50 — the headline predictability number.
func (p Predictability) TailRatio() float64 {
	if p.P50 == 0 {
		return 0
	}
	return p.P99 / p.P50
}
