package mem

import (
	"errors"
	"sync"
	"testing"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
)

func TestNilGovernorGrantsEverything(t *testing.T) {
	var g *Governor
	r, err := g.Reserve(1 << 40)
	if err != nil || r != nil {
		t.Fatalf("nil governor Reserve = %v, %v; want nil, nil", r, err)
	}
	if err := r.Charge("anywhere", 0, 1<<40); err != nil {
		t.Fatalf("nil reservation Charge = %v", err)
	}
	if a := r.Available(); a < 1<<61 {
		t.Fatalf("nil reservation Available = %d, want unbounded", a)
	}
	r.Uncharge(1)
	r.NoteSpill(1)
	r.Release()
	if s := g.Stats(); s.BudgetBytes != 0 || s.InUseBytes != 0 || s.Reservations != 0 || s.TenantInUse != nil {
		t.Fatalf("nil governor Stats = %+v, want zero", s)
	}
}

func TestReserveDefaultsAndAdmissionDenial(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	// The default reservation is BudgetBytes/4 = 250: exactly four fit.
	var resvs []*Reservation
	for i := 0; i < 4; i++ {
		r, err := g.Reserve(0)
		if err != nil {
			t.Fatalf("reservation %d: %v", i, err)
		}
		resvs = append(resvs, r)
	}
	if _, err := g.Reserve(0); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("5th reservation err = %v, want ErrMemoryPressure", err)
	}
	s := g.Stats()
	if s.InUseBytes != 1000 || s.Reservations != 4 || s.AdmissionDenied != 1 {
		t.Fatalf("stats = %+v", s)
	}
	resvs[0].Release()
	if r, err := g.Reserve(0); err != nil || r == nil {
		t.Fatalf("reserve after release = %v, %v", r, err)
	}
}

func TestChargeGrowsGrantAndDenies(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000, PerQueryBytes: 100})
	r, err := g.Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	// Within the grant: no governor growth.
	if err := r.Charge("site", 0, 100); err != nil {
		t.Fatal(err)
	}
	// Beyond the grant: grows against the governor.
	if err := r.Charge("site", 0, 400); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().InUseBytes; got != 500 {
		t.Fatalf("in use = %d, want 500", got)
	}
	// Beyond the budget: denied, accounting untouched.
	if err := r.Charge("site", 0, 600); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("over-budget charge err = %v, want ErrMemoryPressure", err)
	}
	if r.used != 500 || g.Stats().InUseBytes != 500 {
		t.Fatalf("denial mutated accounting: used=%d inUse=%d", r.used, g.Stats().InUseBytes)
	}
	if g.Stats().Denied != 1 {
		t.Fatalf("Denied = %d, want 1", g.Stats().Denied)
	}
	// Uncharge frees reservation headroom but keeps the grant.
	r.Uncharge(500)
	if r.used != 0 || g.Stats().InUseBytes != 500 {
		t.Fatalf("after uncharge: used=%d inUse=%d", r.used, g.Stats().InUseBytes)
	}
	if r.PeakBytes() != 500 {
		t.Fatalf("peak = %d, want 500", r.PeakBytes())
	}
	r.Release()
	if g.Stats().InUseBytes != 0 || g.Stats().Reservations != 0 {
		t.Fatalf("after release: %+v", g.Stats())
	}
	// Charges after release fail rather than leak.
	if err := r.Charge("site", 0, 1); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("post-release charge err = %v", err)
	}
	r.Release() // idempotent
}

func TestKillOnOverageGrantsThenKills(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000, KillOnOverage: true})
	// Naive mode admits everything, even over budget.
	r, err := g.Reserve(900)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Reserve(900)
	if err != nil {
		t.Fatalf("naive admission refused: %v", err)
	}
	// The grant already oversubscribes; the next growing charge dies.
	err = r2.Charge("big-table", 0, 950)
	if !errors.Is(err, errs.ErrOOMKilled) {
		t.Fatalf("overage charge err = %v, want ErrOOMKilled", err)
	}
	if errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatal("an OOM kill must not look retryable")
	}
	s := g.Stats()
	if s.OOMKills != 1 {
		t.Fatalf("OOMKills = %d, want 1", s.OOMKills)
	}
	if s.InUseBytes <= s.BudgetBytes {
		t.Fatalf("naive usage should exceed budget: %+v", s)
	}
	r.Release()
	r2.Release()
}

func TestAvailableTracksBudgetHeadroom(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000, PerQueryBytes: 400})
	r, _ := g.Reserve(0)
	if a := r.Available(); a != 1000 { // 400 unused grant + 600 free
		t.Fatalf("Available = %d, want 1000", a)
	}
	if err := r.Charge("site", 0, 300); err != nil {
		t.Fatal(err)
	}
	if a := r.Available(); a != 700 { // 100 unused + 600 free
		t.Fatalf("Available = %d, want 700", a)
	}
	// Unlimited governor: effectively unbounded.
	gu := NewGovernor(Config{})
	ru, _ := gu.Reserve(0)
	if a := ru.Available(); a < 1<<61 {
		t.Fatalf("unlimited Available = %d", a)
	}
}

func TestAllocFaultInjectionDeniesWithoutAccounting(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, AllocFailSites: map[string]float64{"join-build": 1}})
	g := NewGovernor(Config{BudgetBytes: 1 << 20, Faults: inj})
	r, err := g.Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Charge("join-build", 3, 100); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("injected charge err = %v, want ErrMemoryPressure", err)
	}
	if r.used != 0 {
		t.Fatalf("injected denial accounted bytes: %d", r.used)
	}
	// The shielded site is untouched.
	if err := r.Charge("agg-table", 3, 100); err != nil {
		t.Fatalf("uninjected site failed: %v", err)
	}
	evs := inj.Log()
	if len(evs) != 1 || evs[0].Class != fault.ClassAllocFail || evs[0].Site != "join-build" || evs[0].Worker != 3 {
		t.Fatalf("fault log = %+v", evs)
	}
}

func TestGovernorConcurrentChargesBalance(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1 << 30, PerQueryBytes: 1 << 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.Reserve(0)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 1000; j++ {
				if err := r.Charge("chaos", 0, 4096); err != nil {
					t.Error(err)
					return
				}
				r.Uncharge(4096)
			}
			r.Release()
		}()
	}
	wg.Wait()
	s := g.Stats()
	if s.InUseBytes != 0 || s.Reservations != 0 {
		t.Fatalf("leaked accounting: %+v", s)
	}
	if s.PeakBytes <= 0 {
		t.Fatalf("peak never moved: %+v", s)
	}
}

func TestSpillFanout(t *testing.T) {
	cases := []struct {
		table, avail int64
		workers      int
		want         int
	}{
		{1 << 20, 1 << 19, 1, 2},       // halving fits exactly
		{1 << 20, (1 << 19) - 1, 1, 4}, // halving is one byte short: quarter
		{1 << 20, 1 << 20, 1, 2},       // smallest fanout that fits
		{1 << 20, 1 << 10, 1, 1024},    // deep split still fits
		{1 << 30, 16, 1, 0},            // unspillable: nothing fits
		{0, 1, 1, 2},                   // empty table fits trivially
		{1 << 20, 1 << 19, 4, 8},       // concurrent workers need smaller parts
		{1 << 20, 0, 1, 0},             // no headroom at all
		{1 << 20, 1 << 19, 0, 0},       // no workers
	}
	for _, c := range cases {
		if got := SpillFanout(c.table, c.avail, c.workers); got != c.want {
			t.Errorf("SpillFanout(%d, %d, %d) = %d, want %d", c.table, c.avail, c.workers, got, c.want)
		}
	}
}
