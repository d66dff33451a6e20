package energy

import (
	"math"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
)

func computeBound() Job {
	return Job{Name: "compute", ComputeCycles: 2.4e9, MemCycles: 0.1e9, Cores: 4}
}

func memoryBound() Job {
	return Job{Name: "memory", ComputeCycles: 0.2e9, MemCycles: 2.3e9, Cores: 4}
}

func TestJobValidate(t *testing.T) {
	if err := computeBound().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{Name: "empty", Cores: 1},
		{Name: "negative", ComputeCycles: -1, Cores: 1},
		{Name: "nocores", ComputeCycles: 1, Cores: 0},
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Fatalf("job %q should be invalid", j.Name)
		}
	}
}

func TestMemoryBoundness(t *testing.T) {
	if mb := memoryBound().MemoryBoundness(); mb < 0.9 {
		t.Fatalf("memory-bound job boundness = %f", mb)
	}
	if cb := computeBound().MemoryBoundness(); cb > 0.1 {
		t.Fatalf("compute-bound job boundness = %f", cb)
	}
	if (Job{}).MemoryBoundness() != 0 {
		t.Fatal("empty job boundness should be 0")
	}
}

func TestPowerCubic(t *testing.T) {
	mo := NewModel(hw.Server2S())
	idle := mo.Power(0, 1)
	if idle != mo.Machine.WattsIdle {
		t.Fatalf("idle power = %f", idle)
	}
	full := mo.Power(4, 1.0)
	half := mo.Power(4, 0.5)
	// Dynamic part at half frequency is 1/8 of full.
	dynFull := full - idle
	dynHalf := half - idle
	if math.Abs(dynHalf-dynFull/8) > 1e-9 {
		t.Fatalf("cubic scaling violated: %f vs %f/8", dynHalf, dynFull)
	}
}

func TestRuntimeScaling(t *testing.T) {
	mo := NewModel(hw.Server2S())
	j := computeBound()
	full := mo.Runtime(j, 1.0)
	half := mo.Runtime(j, 0.5)
	// Compute time doubles; memory time fixed.
	wantHalf := 2*(j.ComputeCycles/(2.4e9)) + j.MemCycles/2.4e9
	if math.Abs(half-wantHalf) > 1e-9 {
		t.Fatalf("runtime at half freq = %f, want %f", half, wantHalf)
	}
	if half <= full {
		t.Fatal("lower frequency must not be faster")
	}
	// A purely memory-bound job barely slows down.
	mj := memoryBound()
	if ratio := mo.Runtime(mj, 0.5) / mo.Runtime(mj, 1.0); ratio > 1.2 {
		t.Fatalf("memory-bound slowdown at half freq = %f, should be small", ratio)
	}
}

func TestRaceToIdleMeetsDeadline(t *testing.T) {
	mo := NewModel(hw.Server2S())
	o, err := mo.RaceToIdle(computeBound(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !o.MetDeadline || o.Frequency != 1.0 {
		t.Fatalf("race-to-idle outcome: %+v", o)
	}
	if o.IdleJoules <= 0 {
		t.Fatal("race-to-idle should spend idle energy")
	}
}

func TestPaceStretchesIntoPeriod(t *testing.T) {
	mo := NewModel(hw.Server2S())
	j := computeBound()
	o, err := mo.PaceToDeadline(j, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !o.MetDeadline {
		t.Fatalf("pace must meet a generous deadline: %+v", o)
	}
	if o.Frequency >= 1.0 {
		t.Fatal("pace should pick a reduced frequency for a loose deadline")
	}
	// Tight deadline forces full speed.
	tight := mo.Runtime(j, 1.0) * 1.001
	o, err = mo.PaceToDeadline(j, tight)
	if err != nil {
		t.Fatal(err)
	}
	if o.Frequency < 0.99 {
		t.Fatalf("tight deadline should run at full speed, got f=%f", o.Frequency)
	}
}

func TestMemoryBoundJobsPreferLowFrequency(t *testing.T) {
	// The classic DVFS result: for memory-bound work, lowering the clock
	// saves energy almost for free, so the optimal frequency is below the
	// maximum; for compute-bound work with idle-heavy machines,
	// race-to-idle is competitive.
	mo := NewModel(hw.Server2S())
	period := 5.0
	mem, err := mo.OptimalFrequency(memoryBound(), period)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Frequency > 0.6 {
		t.Fatalf("memory-bound optimal frequency = %f, expected low", mem.Frequency)
	}
	race, _ := mo.RaceToIdle(memoryBound(), period)
	if mem.Joules >= race.Joules {
		t.Fatalf("optimal (%f J) should beat race-to-idle (%f J) for memory-bound work", mem.Joules, race.Joules)
	}
}

func TestOptimalNeverWorseThanPolicies(t *testing.T) {
	mo := NewModel(hw.Server2S())
	for _, j := range []Job{computeBound(), memoryBound()} {
		period := mo.Runtime(j, mo.FMin) * 1.1
		opt, err := mo.OptimalFrequency(j, period)
		if err != nil {
			t.Fatal(err)
		}
		race, _ := mo.RaceToIdle(j, period)
		pace, _ := mo.PaceToDeadline(j, period)
		if opt.Joules > race.Joules+1e-9 || opt.Joules > pace.Joules+1e-9 {
			t.Fatalf("%s: optimal %f J worse than race %f / pace %f", j.Name, opt.Joules, race.Joules, pace.Joules)
		}
	}
}

func TestImpossibleDeadlineFallsBackToFullSpeed(t *testing.T) {
	mo := NewModel(hw.Server2S())
	o, err := mo.OptimalFrequency(computeBound(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if o.MetDeadline || o.Frequency != mo.FMax {
		t.Fatalf("impossible deadline should report full-speed miss: %+v", o)
	}
}

func TestAtFrequencyErrors(t *testing.T) {
	mo := NewModel(hw.Laptop())
	if _, err := mo.atFrequency(Job{}, 1, 1); err == nil {
		t.Fatal("invalid job should fail")
	}
	if _, err := mo.atFrequency(computeBound(), 0, 1); err == nil {
		t.Fatal("zero frequency should fail")
	}
	if _, err := mo.atFrequency(computeBound(), 1, 0); err == nil {
		t.Fatal("zero period should fail")
	}
	if _, err := mo.RaceToIdle(Job{}, 1); err == nil {
		t.Fatal("invalid job should fail race-to-idle")
	}
	if _, err := mo.PaceToDeadline(Job{}, 1); err == nil {
		t.Fatal("invalid job should fail pace")
	}
	if _, err := mo.OptimalFrequency(Job{}, 1); err == nil {
		t.Fatal("invalid job should fail optimal")
	}
}

// Property: energy and runtime are consistent — runtime decreases
// monotonically with frequency, busy power increases monotonically.
func TestMonotonicityProperty(t *testing.T) {
	mo := NewModel(hw.Server2S())
	f := func(compRaw, memRaw uint16) bool {
		j := Job{Name: "p", ComputeCycles: float64(compRaw) * 1e6, MemCycles: float64(memRaw) * 1e6, Cores: 2}
		if j.ComputeCycles+j.MemCycles == 0 {
			return true
		}
		prevRt := math.Inf(1)
		prevPw := 0.0
		for f := mo.FMin; f <= mo.FMax+1e-9; f += 0.05 {
			rt := mo.Runtime(j, f)
			pw := mo.Power(j.Cores, f)
			if rt > prevRt+1e-9 || pw < prevPw-1e-9 {
				return false
			}
			prevRt, prevPw = rt, pw
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
