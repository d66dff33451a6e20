package mem

import (
	"errors"
	"testing"

	"hwstar/internal/errs"
)

// TestTenantCapDeniesAdmission pins the tenant-cap admission rule: a tenant
// at its cap is refused with ErrMemoryPressure even while the global budget
// has headroom, and another tenant is unaffected.
func TestTenantCapDeniesAdmission(t *testing.T) {
	g := NewGovernor(Config{
		BudgetBytes:   1000,
		PerQueryBytes: 200,
	})
	g.SetTenantCap("noisy", 300)
	r1, err := g.ReserveFor("noisy", 200)
	if err != nil {
		t.Fatalf("first reservation within cap: %v", err)
	}
	if _, err := g.ReserveFor("noisy", 200); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("over-cap reservation error = %v, want ErrMemoryPressure", err)
	}
	// The global budget still has 800 free: another tenant is unaffected.
	r2, err := g.ReserveFor("quiet", 200)
	if err != nil {
		t.Fatalf("other tenant blocked by noisy's cap: %v", err)
	}
	s := g.Stats()
	if s.TenantInUse["noisy"] != 200 || s.TenantInUse["quiet"] != 200 {
		t.Fatalf("TenantInUse = %v", s.TenantInUse)
	}
	if s.TenantCaps["noisy"] != 300 {
		t.Fatalf("TenantCaps = %v", s.TenantCaps)
	}
	if s.AdmissionDenied != 1 {
		t.Fatalf("AdmissionDenied = %d, want 1", s.AdmissionDenied)
	}
	r1.Release()
	r2.Release()
	if s := g.Stats(); len(s.TenantInUse) != 0 {
		t.Fatalf("TenantInUse after release = %v, want empty", s.TenantInUse)
	}
}

// TestTenantCapDeniesGrow pins the grow path: a charge that would push the
// tenant past its cap is denied (the spill trigger) and counted.
func TestTenantCapDeniesGrow(t *testing.T) {
	g := NewGovernor(Config{
		BudgetBytes:   1000,
		PerQueryBytes: 100,
	})
	g.SetTenantCap("noisy", 150)
	r, err := g.ReserveFor("noisy", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Within grant: no grow needed.
	if err := r.Charge("agg-table", 0, 100); err != nil {
		t.Fatalf("charge within grant: %v", err)
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
	g := NewGovernor(Config{
		BudgetBytes:   1000,
		PerQueryBytes: 100,
	})
	g.SetTenantCap("noisy", 300)
	r, err := g.ReserveFor("noisy", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Unused grant 100 + tenant headroom (300-100=200, tighter than the
	// global 1000-100=900).
	if got := r.Available(); got != 300 {
		t.Fatalf("Available = %d, want grant slack + tenant headroom = 300", got)
	}
	// An uncapped tenant sees global headroom.
	r2, err := g.ReserveFor("quiet", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Unused grant 100 + global headroom 1000-200=800.
	if got := r2.Available(); got != 900 {
		t.Fatalf("uncapped Available = %d, want grant slack + global headroom = 900", got)
	}
	r.Release()
	r2.Release()
}

// TestSetTenantCapLiveUpdate pins SetTenantCap: caps apply to the next
// reservation, and bytes <= 0 removes the cap.
func TestSetTenantCapLiveUpdate(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000, PerQueryBytes: 100})
	g.SetTenantCap("t", 100)
	if _, err := g.ReserveFor("t", 200); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("capped reserve error = %v, want ErrMemoryPressure", err)
	}
	g.SetTenantCap("t", 0) // uncap
	r, err := g.ReserveFor("t", 200)
	if err != nil {
		t.Fatalf("uncapped reserve: %v", err)
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
	g := NewGovernor(Config{
		BudgetBytes:   1000,
		PerQueryBytes: 100,
		KillOnOverage: true,
	})
	g.SetTenantCap("noisy", 50)
	r, err := g.ReserveFor("noisy", 400)
	if err != nil {
		t.Fatalf("naive mode must grant past the tenant cap: %v", err)
	}
	if err := r.Charge("join-build", 0, 300); err != nil {
		t.Fatalf("naive charge under budget: %v", err)
	}
	// The global budget still kills once usage passes it.
	if err := r.Charge("join-build", 0, 800); !errors.Is(err, errs.ErrOOMKilled) {
		t.Fatalf("over-budget naive charge = %v, want ErrOOMKilled", err)
	}
	r.Release()
}

// TestReserveForUnlabelled pins that Reserve and ReserveFor("") are the same
// path and carry no tenant dimension.
func TestReserveForUnlabelled(t *testing.T) {
	g := NewGovernor(Config{BudgetBytes: 1000, PerQueryBytes: 100})
	r, err := g.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if s := g.Stats(); s.TenantInUse != nil {
		t.Fatalf("unlabelled reservation grew a tenant dimension: %v", s.TenantInUse)
	}
}
