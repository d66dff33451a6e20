package mem

import (
	"errors"
	"testing"

	"hwstar/internal/errs"
)

// TestTenantCapDeniesCharge pins the tenant-cap rule: a charge that would
// take a tenant past its cap is refused with ErrMemoryPressure even while
// the global budget has headroom, and another tenant is unaffected.
func TestTenantCapDeniesCharge(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	g.SetTenantCap("noisy", 300)
	r1, r1b := g.Reserve("noisy"), g.Reserve("noisy")
	if err := r1.Charge("agg-table", 0, 200); err != nil {
		t.Fatalf("first charge within cap: %v", err)
	}
	if err := r1b.Charge("agg-table", 0, 200); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("over-cap charge error = %v, want ErrMemoryPressure", err)
	}
	// The global budget still has 800 free: another tenant is unaffected.
	r2 := g.Reserve("quiet")
	if err := r2.Charge("agg-table", 0, 200); err != nil {
		t.Fatalf("other tenant blocked by noisy's cap: %v", err)
	}
	s := g.Stats()
	if s.TenantInUse["noisy"] != 200 || s.TenantInUse["quiet"] != 200 {
		t.Fatalf("TenantInUse = %v", s.TenantInUse)
	}
	if s.TenantCaps["noisy"] != 300 {
		t.Fatalf("TenantCaps = %v", s.TenantCaps)
	}
	if s.Denied != 1 {
		t.Fatalf("Denied = %d, want 1", s.Denied)
	}
	r1.Release()
	r1b.Release()
	r2.Release()
	if s := g.Stats(); len(s.TenantInUse) != 0 {
		t.Fatalf("TenantInUse after release = %v, want empty", s.TenantInUse)
	}
}

// TestTenantCapDeniesGrow pins the grow path: a charge that would push the
// tenant past its cap is denied (the spill trigger) and counted.
func TestTenantCapDeniesGrow(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	g.SetTenantCap("noisy", 150)
	r := g.Reserve("noisy")
	if err := r.Charge("agg-table", 0, 100); err != nil {
		t.Fatalf("charge within cap: %v", err)
	}
	// Grow past the tenant cap (150) but well under the budget (1000).
	if err := r.Charge("agg-table", 0, 100); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("over-cap grow error = %v, want ErrMemoryPressure", err)
	}
	s := g.Stats()
	if s.Denied != 1 {
		t.Fatalf("Denied = %d, want 1", s.Denied)
	}
	r.Release()
}

// TestTenantCapBoundsAvailable pins spill sizing: Available() reports the
// tenant's headroom when it is tighter than the global budget's.
func TestTenantCapBoundsAvailable(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	g.SetTenantCap("noisy", 300)
	r := g.Reserve("noisy")
	if err := r.Charge("agg-table", 0, 100); err != nil {
		t.Fatal(err)
	}
	r.Uncharge(100)
	// Held slack 100 + tenant headroom (300-100=200, tighter than the
	// global 1000-100=900).
	if got := r.Available(); got != 300 {
		t.Fatalf("Available = %d, want held slack + tenant headroom = 300", got)
	}
	// An uncapped tenant sees global headroom.
	r2 := g.Reserve("quiet")
	if err := r2.Charge("agg-table", 0, 100); err != nil {
		t.Fatal(err)
	}
	r2.Uncharge(100)
	// Held slack 100 + global headroom 1000-200=800.
	if got := r2.Available(); got != 900 {
		t.Fatalf("uncapped Available = %d, want held slack + global headroom = 900", got)
	}
	r.Release()
	r2.Release()
}

// TestSetTenantCapLiveUpdate pins SetTenantCap: caps apply to the next
// charge, even under a reservation already open, and bytes <= 0 removes
// the cap.
func TestSetTenantCapLiveUpdate(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	g.SetTenantCap("t", 100)
	r := g.Reserve("t")
	if err := r.Charge("agg-table", 0, 200); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("capped charge error = %v, want ErrMemoryPressure", err)
	}
	g.SetTenantCap("t", 0) // uncap
	if err := r.Charge("agg-table", 0, 200); err != nil {
		t.Fatalf("uncapped charge: %v", err)
	}
	r.Release()
	// Nil receiver and empty tenant are no-ops, not panics.
	var nilG *Governor
	nilG.SetTenantCap("t", 100)
	g.SetTenantCap("", 100)
}

// TestKillOnOverageIgnoresTenantCaps pins the naive-mode contract: the
// ungoverned engine has no governance at all, so tenant caps do not apply.
func TestKillOnOverageIgnoresTenantCaps(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000, KillOnOverage: true})
	g.SetTenantCap("noisy", 50)
	r := g.Reserve("noisy")
	if err := r.Charge("join-build", 0, 300); err != nil {
		t.Fatalf("naive mode must grant past the tenant cap: %v", err)
	}
	// The global budget still kills once usage passes it.
	if err := r.Charge("join-build", 0, 800); !errors.Is(err, errs.ErrOOMKilled) {
		t.Fatalf("over-budget naive charge = %v, want ErrOOMKilled", err)
	}
	r.Release()
}

// TestReserveUnlabelled pins that an untenanted reservation carries no
// tenant dimension.
func TestReserveUnlabelled(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000})
	r := g.Reserve("")
	defer r.Release()
	if err := r.Charge("agg-table", 0, 100); err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); s.TenantInUse != nil {
		t.Fatalf("unlabelled reservation grew a tenant dimension: %v", s.TenantInUse)
	}
}
