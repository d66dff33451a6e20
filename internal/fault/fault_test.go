package fault

import (
	"errors"
	"reflect"
	"testing"

	"hwstar/internal/errs"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector enabled")
	}
	if in.ShouldPanic("scan", 0) {
		t.Fatal("nil injector panicked")
	}
	if err := in.TaskError("scan", 0); err != nil {
		t.Fatalf("nil injector errored: %v", err)
	}
	if k := in.WorkerSkew(0); k != 1 {
		t.Fatalf("nil injector skew = %v", k)
	}
	if in.LoseCore(0) {
		t.Fatal("nil injector lost a core")
	}
	if in.Log() != nil || in.Counts() != nil || in.CountsInt64() != nil {
		t.Fatal("nil injector has state")
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 42, PanicProb: 0.1, TransientProb: 0.1, StragglerProb: 0.2, CoreLossProb: 0.05}
	draw := func(in *Injector) []Event {
		for w := 0; w < 8; w++ {
			in.WorkerSkew(w)
			in.LoseCore(w)
		}
		for i := 0; i < 200; i++ {
			in.ShouldPanic("scan", i%8)
			in.TaskError("agg", i%8)
		}
		return in.Log()
	}
	a := draw(New(cfg))
	b := draw(New(cfg))
	if len(a) == 0 {
		t.Fatal("no faults fired at these probabilities")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different logs:\n%v\n%v", a, b)
	}
}

func TestEventLogOrder(t *testing.T) {
	in := New(Config{Seed: 1, PanicProb: 1})
	in.ShouldPanic("a", 3)
	in.ShouldPanic("b", 4)
	log := in.Log()
	if len(log) != 2 {
		t.Fatalf("log = %v", log)
	}
	want := []Event{{Seq: 0, Class: ClassPanic, Site: "a", Worker: 3}, {Seq: 1, Class: ClassPanic, Site: "b", Worker: 4}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if c := in.Counts(); c[ClassPanic] != 2 {
		t.Fatalf("counts = %v", c)
	}
	if c := in.CountsInt64(); c["panic"] != 2 {
		t.Fatalf("counts64 = %v", c)
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	in := New(Config{Seed: 1, TransientProb: 1, MaxFaults: 2})
	var fired int
	for i := 0; i < 10; i++ {
		if err := in.TaskError("scan", 0); err != nil {
			if !errors.Is(err, errs.ErrTransient) {
				t.Fatalf("wrong error type: %v", err)
			}
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("budget of 2 fired %d faults", fired)
	}
}

func TestSiteOverrides(t *testing.T) {
	in := New(Config{
		Seed:           1,
		PanicProb:      1,
		PanicSites:     map[string]float64{"shielded": 0},
		TransientSites: map[string]float64{"fragile": 1},
	})
	if in.ShouldPanic("shielded", 0) {
		t.Fatal("shielded site panicked")
	}
	if !in.ShouldPanic("anything-else", 0) {
		t.Fatal("default panic prob ignored")
	}
	if err := in.TaskError("fragile", 0); err == nil {
		t.Fatal("fragile site did not fail")
	}
	if err := in.TaskError("other", 0); err != nil {
		t.Fatalf("zero default transient prob fired: %v", err)
	}
}

func TestExplicitWorkerLists(t *testing.T) {
	in := New(Config{Seed: 1, StragglerWorkers: []int{2}, StragglerSkew: 6, LostCores: []int{5}})
	if !in.Enabled() {
		t.Fatal("explicit lists should enable the injector")
	}
	if k := in.WorkerSkew(2); k != 6 {
		t.Fatalf("worker 2 skew = %v", k)
	}
	if k := in.WorkerSkew(3); k != 1 {
		t.Fatalf("worker 3 skew = %v", k)
	}
	if !in.LoseCore(5) {
		t.Fatal("worker 5 not lost")
	}
	if in.LoseCore(6) {
		t.Fatal("worker 6 lost")
	}
	c := in.Counts()
	if c[ClassStraggler] != 1 || c[ClassCoreLoss] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestNodeLoss(t *testing.T) {
	in := New(Config{Seed: 1, LostNodes: []int{1}})
	if !in.Enabled() {
		t.Fatal("LostNodes should enable the injector")
	}
	if !in.LoseNode(1) {
		t.Fatal("node 1 not lost")
	}
	if in.LoseNode(0) {
		t.Fatal("node 0 lost with zero probability")
	}
	if c := in.Counts(); c[ClassNodeLoss] != 1 {
		t.Fatalf("counts = %v", c)
	}

	// Probabilistic draws replay deterministically from the seed.
	a := New(Config{Seed: 42, NodeLossProb: 0.5})
	b := New(Config{Seed: 42, NodeLossProb: 0.5})
	for node := 0; node < 64; node++ {
		if a.LoseNode(node) != b.LoseNode(node) {
			t.Fatalf("node-loss draw diverged at node %d", node)
		}
	}
	if len(a.Log()) == 0 {
		t.Fatal("expected some node losses at p=0.5 over 64 draws")
	}
	for _, ev := range a.Log() {
		if ev.Class != ClassNodeLoss {
			t.Fatalf("unexpected class %s", ev.Class)
		}
	}
}

func TestSkewDefault(t *testing.T) {
	in := New(Config{Seed: 1, StragglerWorkers: []int{0}})
	if k := in.WorkerSkew(0); k != 4 {
		t.Fatalf("default skew = %v, want 4", k)
	}
}
