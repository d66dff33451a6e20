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
	r := g.Reserve("t")
	if r != nil {
		t.Fatalf("nil governor Reserve = %v; want nil", r)
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

// TestReserveHoldsOnlyCharges pins that a reservation holds no bytes until
// an operator charges them: any number of queries open one on a full-size
// budget, and the budget is enforced on the charge that would pass it.
func TestReserveHoldsOnlyCharges(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	var resvs []*Reservation
	for i := 0; i < 8; i++ {
		resvs = append(resvs, g.Reserve(""))
	}
	if s := g.Stats(); s.InUseBytes != 0 || s.Reservations != 8 {
		t.Fatalf("open reservations hold bytes: %+v", s)
	}
	for i, r := range resvs[:4] {
		if err := r.Charge("site", 0, 250); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if err := resvs[4].Charge("site", 0, 1); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("charge past the budget err = %v, want ErrMemoryPressure", err)
	}
	if s := g.Stats(); s.InUseBytes != 1000 || s.Denied != 1 {
		t.Fatalf("stats = %+v", s)
	}
	resvs[0].Release()
	if err := resvs[4].Charge("site", 0, 250); err != nil {
		t.Fatalf("charge after release: %v", err)
	}
	for _, r := range resvs {
		r.Release()
	}
	if s := g.Stats(); s.InUseBytes != 0 || s.Reservations != 0 {
		t.Fatalf("after release: %+v", s)
	}
}

func TestChargeGrowsGrantAndDenies(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	r := g.Reserve("")
	if err := r.Charge("site", 0, 100); err != nil {
		t.Fatal(err)
	}
	// Beyond the high-water mark: grows against the governor.
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
	// Uncharge frees reservation headroom but keeps the held bytes.
	r.Uncharge(500)
	if r.used != 0 || g.Stats().InUseBytes != 500 {
		t.Fatalf("after uncharge: used=%d inUse=%d", r.used, g.Stats().InUseBytes)
	}
	// Within the high-water mark: no governor growth.
	if err := r.Charge("site", 0, 300); err != nil || g.Stats().InUseBytes != 500 {
		t.Fatalf("recharge under peak: err=%v inUse=%d", err, g.Stats().InUseBytes)
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
	r, r2 := g.Reserve(""), g.Reserve("")
	if err := r.Charge("big-table", 0, 900); err != nil {
		t.Fatal(err)
	}
	// The next charge past the budget dies.
	err := r2.Charge("big-table", 0, 950)
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
	if s.PeakBytes != 1850 || s.InUseBytes != 900 {
		t.Fatalf("naive peak should show the overage, usage only what survived: %+v", s)
	}
	r.Release()
	r2.Release()
}

// TestKilledChargeHoldsNothing pins that a naive-mode kill leaks nothing:
// the bytes of the charge that killed the query were never held, so once
// its reservation is released the governor is back to zero.
func TestKilledChargeHoldsNothing(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 100, KillOnOverage: true})
	g.SetTenantCap("t", 10) // naive mode ignores caps
	r := g.Reserve("t")
	if err := r.Charge("agg-table", 0, 150); !errors.Is(err, errs.ErrOOMKilled) {
		t.Fatalf("charge err = %v, want ErrOOMKilled", err)
	}
	r.Release()
	if s := g.Stats(); s.InUseBytes != 0 || s.Reservations != 0 || s.TenantInUse != nil || s.PeakBytes != 150 {
		t.Fatalf("after a killed charge and release: %+v", s)
	}
}

func TestAvailableTracksBudgetHeadroom(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	r := g.Reserve("")
	if a := r.Available(); a != 1000 { // the whole budget is free
		t.Fatalf("Available = %d, want 1000", a)
	}
	if err := r.Charge("site", 0, 400); err != nil {
		t.Fatal(err)
	}
	r.Uncharge(100)
	if a := r.Available(); a != 700 { // 100 held but uncharged + 600 free
		t.Fatalf("Available = %d, want 700", a)
	}
	// Unlimited governor: effectively unbounded.
	ru := NewGovernor(Config{}).Reserve("")
	if a := ru.Available(); a < 1<<61 {
		t.Fatalf("unlimited Available = %d", a)
	}
}

func TestAllocFaultInjectionDeniesWithoutAccounting(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, AllocFailSites: map[string]float64{"join-build": 1}})
	r := NewGovernor(Config{BudgetBytes: 1 << 20, Faults: inj}).Reserve("")
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
	g := NewGovernor(Config{BudgetBytes: 1 << 30})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := g.Reserve("")
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
