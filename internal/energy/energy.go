// Package energy models the power wall the keynote names among the forces
// reshaping hardware: dynamic power grows roughly with the cube of clock
// frequency (P_dyn ∝ C·V²·f with V ∝ f), so the energy-optimal operating
// point of a data-processing job depends on where its time goes. The model
// splits a job into frequency-scaled compute time and frequency-invariant
// memory time, prices power at each DVFS step, and evaluates the two classic
// policies — race-to-idle and pace-to-deadline — so experiment E9 can show
// where each wins.
package energy

import (
	"fmt"
	"math"

	"hwstar/internal/hw"
)

// Job describes one unit of work at the machine's nominal frequency:
// ComputeCycles scale with frequency; MemCycles (stalls on DRAM) do not.
type Job struct {
	Name          string
	ComputeCycles float64
	MemCycles     float64
	// Cores is the number of active cores while the job runs.
	Cores int
}

// Validate reports an error for nonsensical jobs.
func (j Job) Validate() error {
	if j.ComputeCycles < 0 || j.MemCycles < 0 || j.ComputeCycles+j.MemCycles == 0 {
		return fmt.Errorf("energy: job %q must have positive work", j.Name)
	}
	if j.Cores <= 0 {
		return fmt.Errorf("energy: job %q needs at least one core", j.Name)
	}
	return nil
}

// Model prices power on a machine across its DVFS range.
type Model struct {
	Machine *hw.Machine
	// FMin and FMax bound the DVFS range as fractions of nominal frequency.
	FMin, FMax float64
	// SleepWatts is the package power once all work is done and the machine
	// drops into a deep idle state. It is what makes race-to-idle a real
	// strategy: finishing early only pays off if "idle" is much cheaper
	// than "awake".
	SleepWatts float64
}

// NewModel returns a model with the conventional 40%–100% DVFS range and a
// deep-idle state at a quarter of the machine's active-idle power.
func NewModel(m *hw.Machine) Model {
	return Model{Machine: m, FMin: 0.4, FMax: 1.0, SleepWatts: m.WattsIdle / 4}
}

// Power returns watts drawn when `cores` cores run at frequency fraction f:
// idle floor plus per-core dynamic power scaling with f³ (V ∝ f).
func (mo Model) Power(cores int, f float64) float64 {
	dyn := mo.Machine.WattsPerCoreActive * float64(cores) * f * f * f
	return mo.Machine.WattsIdle + dyn
}

// Runtime returns the wall-clock seconds of job j at frequency fraction f:
// compute time stretches as 1/f, memory time is fixed by DRAM, not the core
// clock.
func (mo Model) Runtime(j Job, f float64) float64 {
	nominalHz := mo.Machine.FreqGHz * 1e9
	compute := j.ComputeCycles / (nominalHz * f)
	memory := j.MemCycles / nominalHz
	return compute + memory
}

// Outcome is the result of executing a job under a policy within a period.
type Outcome struct {
	Frequency      float64 // chosen frequency fraction
	RuntimeSeconds float64
	// BusyJoules is energy while running; IdleJoules the energy idling out
	// the remainder of the period; Joules their sum.
	BusyJoules, IdleJoules, Joules float64
	// MetDeadline reports whether the job finished within the period.
	MetDeadline bool
}

// RaceToIdle runs the job at full frequency, then idles until the period
// ends.
func (mo Model) RaceToIdle(j Job, periodSeconds float64) (Outcome, error) {
	return mo.atFrequency(j, mo.FMax, periodSeconds)
}

// PaceToDeadline picks the lowest frequency in the DVFS range that still
// meets the deadline and runs there (stretching work into the period).
func (mo Model) PaceToDeadline(j Job, periodSeconds float64) (Outcome, error) {
	if err := j.Validate(); err != nil {
		return Outcome{}, err
	}
	// The runtime is monotone decreasing in f; binary-search the slowest
	// feasible frequency at 1% resolution.
	f := mo.FMax
	for cand := mo.FMin; cand <= mo.FMax; cand += 0.01 {
		if mo.Runtime(j, cand) <= periodSeconds {
			f = cand
			break
		}
	}
	return mo.atFrequency(j, f, periodSeconds)
}

// OptimalFrequency scans the DVFS range at 1% steps for the frequency
// minimizing total energy over the period (including idle energy) subject to
// meeting the deadline, and returns its outcome.
func (mo Model) OptimalFrequency(j Job, periodSeconds float64) (Outcome, error) {
	if err := j.Validate(); err != nil {
		return Outcome{}, err
	}
	best := Outcome{Joules: math.Inf(1)}
	for f := mo.FMin; f <= mo.FMax+1e-9; f += 0.01 {
		o, err := mo.atFrequency(j, f, periodSeconds)
		if err != nil {
			return Outcome{}, err
		}
		if o.MetDeadline && o.Joules < best.Joules {
			best = o
		}
	}
	if math.IsInf(best.Joules, 1) {
		// Nothing meets the deadline: report full speed.
		return mo.atFrequency(j, mo.FMax, periodSeconds)
	}
	return best, nil
}

// atFrequency executes j at frequency fraction f over the period.
func (mo Model) atFrequency(j Job, f float64, periodSeconds float64) (Outcome, error) {
	if err := j.Validate(); err != nil {
		return Outcome{}, err
	}
	if f <= 0 {
		return Outcome{}, fmt.Errorf("energy: frequency fraction %f must be positive", f)
	}
	if periodSeconds <= 0 {
		return Outcome{}, fmt.Errorf("energy: period %f must be positive", periodSeconds)
	}
	rt := mo.Runtime(j, f)
	busy := mo.Power(j.Cores, f) * math.Min(rt, periodSeconds)
	idleTime := periodSeconds - rt
	var idle float64
	if idleTime > 0 {
		idle = mo.SleepWatts * idleTime
	}
	return Outcome{
		Frequency:      f,
		RuntimeSeconds: rt,
		BusyJoules:     busy,
		IdleJoules:     idle,
		Joules:         busy + idle,
		MetDeadline:    rt <= periodSeconds+1e-12,
	}, nil
}

// MemoryBoundness returns the fraction of job time spent waiting on memory
// at nominal frequency — the knob that decides which DVFS policy wins.
func (j Job) MemoryBoundness() float64 {
	total := j.ComputeCycles + j.MemCycles
	if total == 0 {
		return 0
	}
	return j.MemCycles / total
}
