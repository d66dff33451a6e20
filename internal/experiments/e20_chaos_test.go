package experiments

import (
	"reflect"
	"testing"

	"hwstar/internal/hw"
)

// TestE20ResilientBeatsNaive asserts the experiment's headline claim at test
// scale: under the same per-trial fault seeds (1% panic, 10% straggler @8x),
// the resilient scheduler completes every trial and sustains a lower p99
// makespan than the naive retry-free engine.
func TestE20ResilientBeatsNaive(t *testing.T) {
	m := hw.Server2S()
	const trials, nTasks, cost = 20, 256, 1e5

	naive, err := e20SchedTrials(m, trials, nTasks, cost, false)
	if err != nil {
		t.Fatalf("naive trials: %v", err)
	}
	resil, err := e20SchedTrials(m, trials, nTasks, cost, true)
	if err != nil {
		t.Fatalf("resilient trials: %v", err)
	}

	if resil.completed != trials {
		t.Fatalf("resilient engine completed %d/%d trials", resil.completed, trials)
	}
	if naive.completed == 0 {
		t.Fatal("naive engine completed nothing; fault mix too hot to compare tails")
	}
	np99, rp99 := quantileOf(naive.makespans, 0.99), quantileOf(resil.makespans, 0.99)
	if rp99 >= np99 {
		t.Fatalf("resilient p99 %.2f Mcyc not below naive p99 %.2f Mcyc", rp99, np99)
	}
	// The mix must actually have fired: stragglers in both engines, and the
	// resilient one must have retired and re-dispatched.
	if naive.faults.Panics+resil.faults.Panics == 0 {
		t.Fatal("no panics fired across either engine")
	}
	if resil.faults.StragglersRetired == 0 || resil.faults.Redispatched == 0 {
		t.Fatalf("resilient engine never re-dispatched: %+v", resil.faults)
	}
}

// TestE20Reproducible asserts that the same seeds produce identical trial
// statistics — the chaos runs are deterministic, not merely plausible.
func TestE20Reproducible(t *testing.T) {
	m := hw.Server2S()
	const trials, nTasks, cost = 10, 256, 1e5
	for _, resilient := range []bool{false, true} {
		a, err := e20SchedTrials(m, trials, nTasks, cost, resilient)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e20SchedTrials(m, trials, nTasks, cost, resilient)
		if err != nil {
			t.Fatal(err)
		}
		if a.completed != b.completed || !reflect.DeepEqual(a.makespans, b.makespans) || a.faults != b.faults {
			t.Fatalf("resilient=%v not reproducible:\n  a=%+v %v\n  b=%+v %v",
				resilient, a.faults, a.makespans, b.faults, b.makespans)
		}
	}
}
