package mem

import (
	"fmt"
	"sync"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
)

// Config arms a Governor. The zero value disables governance entirely: a
// Governor built from it grants every request without accounting, which keeps
// ungoverned code paths (the plain Engine facade, unit tests) free of
// conditionals.
type Config struct {
	// BudgetBytes is the server-wide byte budget the governor enforces. 0
	// disables budgeting (every reservation and charge is granted).
	BudgetBytes int64
	// PerQueryBytes is the default reservation granted to one query at
	// admission. 0 defaults to BudgetBytes/4 so at least a few queries can
	// run concurrently before admission pushes back.
	PerQueryBytes int64
	// KillOnOverage switches the governor into "naive engine" mode: every
	// reservation is granted and charges are never denied, but the first
	// charge that pushes total usage past BudgetBytes returns a fatal
	// errs.ErrOOMKilled — the simulated OOM kill an ungoverned engine
	// suffers. E22 uses this as the baseline against governed spill.
	KillOnOverage bool
	// Faults, when armed with a positive AllocFailProb (or AllocFailSites),
	// injects allocation failures into Charge: a charge fails with
	// errs.ErrMemoryPressure before any bytes are accounted.
	Faults *fault.Injector

	// TenantCaps caps individual tenants' shares of the budget: a
	// reservation made through ReserveFor fails with errs.ErrMemoryPressure
	// once that tenant's in-use bytes would pass its cap, even while the
	// global budget has headroom — one noisy tenant cannot drain the pool.
	// Tenants absent from the map are bounded only by the global budget.
	TenantCaps map[string]int64
}

// Stats is a point-in-time snapshot of a governor, exported through
// serve.Health and the metrics registry.
type Stats struct {
	// BudgetBytes and InUseBytes describe the current budget position.
	BudgetBytes int64
	InUseBytes  int64
	// PeakBytes is the high-water mark of InUseBytes over the governor's
	// lifetime.
	PeakBytes int64
	// Reservations is the number of live reservations.
	Reservations int
	// Denied counts reservation grows refused for lack of budget (spill
	// triggers); AdmissionDenied counts whole-query reservations refused at
	// admission (sheds); OOMKills counts simulated kills (KillOnOverage
	// mode only).
	Denied          int64
	AdmissionDenied int64
	OOMKills        int64

	// TenantCaps, TenantInUse, and TenantDenied break the budget position
	// down by tenant for every tenant with a cap or live usage. Nil when the
	// governor carries no tenant dimension.
	TenantCaps   map[string]int64
	TenantInUse  map[string]int64
	TenantDenied map[string]int64
}

// Governor tracks a server-wide memory budget and hands out per-query
// Reservations. All methods are safe for concurrent use; a nil *Governor is
// valid and grants everything (mirroring the nil-injector and nil-span
// conventions elsewhere in hwstar).
//
// The governor accounts simulated operator state — hash tables, partition
// buffers — not Go heap bytes. That is deliberate: the point of the model is
// to show WHERE a budget forces a plan change (spill, shed), and simulated
// bytes make that reproducible across hosts, exactly as internal/hw prices
// simulated cycles rather than measuring wall time.
type Governor struct {
	mu    sync.Mutex
	cfg   Config
	inUse int64
	peak  int64
	live  int
	stats Stats

	// Tenant dimension: per-tenant caps, in-use bytes, and denial counts.
	// All nil until a cap is set or a tenant-labelled reservation is made.
	tenantCaps map[string]int64
	tenantUse  map[string]int64
	tenantDeny map[string]int64
}

// NewGovernor returns a governor armed with cfg.
func NewGovernor(cfg Config) *Governor {
	if cfg.PerQueryBytes <= 0 && cfg.BudgetBytes > 0 {
		cfg.PerQueryBytes = cfg.BudgetBytes / 4
	}
	g := &Governor{cfg: cfg}
	for id, cap := range cfg.TenantCaps {
		if cap > 0 {
			if g.tenantCaps == nil {
				g.tenantCaps = make(map[string]int64)
			}
			g.tenantCaps[id] = cap
		}
	}
	return g
}

// SetTenantCap caps (or, with bytes <= 0, uncaps) one tenant's share of the
// budget. Safe to call while reservations are live: the cap applies to the
// next reservation or grow.
func (g *Governor) SetTenantCap(tenant string, bytes int64) {
	if g == nil || tenant == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if bytes <= 0 {
		delete(g.tenantCaps, tenant)
		return
	}
	if g.tenantCaps == nil {
		g.tenantCaps = make(map[string]int64)
	}
	g.tenantCaps[tenant] = bytes
}

// Reserve grants a reservation of n bytes (n <= 0 means the configured
// per-query default). Under KillOnOverage the grant always succeeds — the
// naive engine admits everything and dies later. Otherwise a grant that
// would push usage past the budget is refused with errs.ErrMemoryPressure,
// which the serving layer turns into an admission shed.
func (g *Governor) Reserve(n int64) (*Reservation, error) {
	return g.ReserveFor("", n)
}

// ReserveFor is Reserve with tenant attribution: the grant is charged against
// the tenant's cap (if one is set) before the global budget, and the tenant's
// in-use bytes are tracked for Stats. An empty tenant is the untenanted form.
// KillOnOverage mode ignores tenant caps — the naive engine has no
// governance at all.
func (g *Governor) ReserveFor(tenant string, n int64) (*Reservation, error) {
	if g == nil {
		return nil, nil
	}
	if n <= 0 {
		n = g.cfg.PerQueryBytes
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.cfg.KillOnOverage {
		if cap, ok := g.tenantCaps[tenant]; ok && tenant != "" && g.tenantUse[tenant]+n > cap {
			g.stats.AdmissionDenied++
			g.noteTenantDenied(tenant)
			return nil, fmt.Errorf("mem: reserve %d bytes for tenant %q with %d of %d tenant cap in use: %w",
				n, tenant, g.tenantUse[tenant], cap, errs.ErrMemoryPressure)
		}
		if g.cfg.BudgetBytes > 0 && g.inUse+n > g.cfg.BudgetBytes {
			g.stats.AdmissionDenied++
			if tenant != "" {
				g.noteTenantDenied(tenant)
			}
			return nil, fmt.Errorf("mem: reserve %d bytes with %d of %d in use: %w",
				n, g.inUse, g.cfg.BudgetBytes, errs.ErrMemoryPressure)
		}
	}
	g.grow(n)
	g.growTenant(tenant, n)
	g.live++
	return &Reservation{gov: g, tenant: tenant, granted: n}, nil
}

// grow adds n bytes to usage and maintains the peak. Callers hold g.mu.
func (g *Governor) grow(n int64) {
	g.inUse += n
	if g.inUse > g.peak {
		g.peak = g.inUse
	}
}

// growTenant adds n bytes to a tenant's usage. Callers hold g.mu.
func (g *Governor) growTenant(tenant string, n int64) {
	if tenant == "" {
		return
	}
	if g.tenantUse == nil {
		g.tenantUse = make(map[string]int64)
	}
	g.tenantUse[tenant] += n
}

// noteTenantDenied counts one denial against a tenant. Callers hold g.mu.
func (g *Governor) noteTenantDenied(tenant string) {
	if g.tenantDeny == nil {
		g.tenantDeny = make(map[string]int64)
	}
	g.tenantDeny[tenant]++
}

// tryGrow attempts to add n bytes to usage for a reservation grow, applying
// tenant-cap, budget, and kill semantics. Callers hold g.mu.
func (g *Governor) tryGrow(n int64, tenant, site string) error {
	if tenant != "" && !g.cfg.KillOnOverage {
		if cap, ok := g.tenantCaps[tenant]; ok && g.tenantUse[tenant]+n > cap {
			g.stats.Denied++
			g.noteTenantDenied(tenant)
			return fmt.Errorf("mem: charge %d bytes at %s with %d of %d tenant %q cap in use: %w",
				n, site, g.tenantUse[tenant], cap, tenant, errs.ErrMemoryPressure)
		}
	}
	if g.cfg.BudgetBytes > 0 && g.inUse+n > g.cfg.BudgetBytes {
		if g.cfg.KillOnOverage {
			g.stats.OOMKills++
			g.grow(n) // the naive engine allocates anyway; the kill is the consequence
			g.growTenant(tenant, n)
			return fmt.Errorf("mem: %s pushed usage to %d of %d budget: %w",
				site, g.inUse, g.cfg.BudgetBytes, errs.ErrOOMKilled)
		}
		g.stats.Denied++
		if tenant != "" {
			g.noteTenantDenied(tenant)
		}
		return fmt.Errorf("mem: charge %d bytes at %s with %d of %d in use: %w",
			n, site, g.inUse, g.cfg.BudgetBytes, errs.ErrMemoryPressure)
	}
	g.grow(n)
	g.growTenant(tenant, n)
	return nil
}

// release returns n bytes to the pool and, when final, retires the
// reservation.
func (g *Governor) release(n int64, final bool, tenant string) {
	g.mu.Lock()
	g.inUse -= n
	if tenant != "" && g.tenantUse != nil {
		g.tenantUse[tenant] -= n
		if g.tenantUse[tenant] <= 0 {
			delete(g.tenantUse, tenant)
		}
	}
	if final {
		g.live--
	}
	g.mu.Unlock()
}

// Stats returns a snapshot.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.BudgetBytes = g.cfg.BudgetBytes
	s.InUseBytes = g.inUse
	s.PeakBytes = g.peak
	s.Reservations = g.live
	s.TenantCaps = copyTenantMap(g.tenantCaps)
	s.TenantInUse = copyTenantMap(g.tenantUse)
	s.TenantDenied = copyTenantMap(g.tenantDeny)
	return s
}

// copyTenantMap snapshots a tenant map, preserving nil for "no dimension".
func copyTenantMap(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// SpillFanout picks a grace-hash spill fan-out: the smallest power of two K
// such that `workers` concurrently-resident partition tables of
// tableBytes/K bytes fit in avail bytes. Returns 0 when no K ≤ 1024 fits —
// the operator cannot run even spilled within its budget.
func SpillFanout(tableBytes, avail int64, workers int) int {
	if avail <= 0 || workers < 1 {
		return 0
	}
	for k := int64(2); k <= 1024; k <<= 1 {
		if tableBytes/k*int64(workers) <= avail {
			return int(k)
		}
	}
	return 0
}

// Reservation is one query's slice of the budget. Operators charge their
// simulated state against it as they build; a charge that cannot be granted
// tells the operator to degrade (spill) rather than grow. A nil *Reservation
// grants everything, so ungoverned call sites need no checks. Methods are
// safe for concurrent use by the workers of one query.
type Reservation struct {
	gov    *Governor
	tenant string // attribution for tenant caps/usage; "" = untenanted

	mu       sync.Mutex
	granted  int64 // bytes held against the governor
	used     int64 // bytes charged by operators
	peakUsed int64 // high-water mark of used
	spills   int64 // operator spill decisions under this reservation
	spillB   int64 // bytes written to the spill tier
	closed   bool
}

// Charge requests n simulated bytes at the named site for the given worker.
// It consults the allocation-fault injector first (a fired fault denies the
// charge with errs.ErrMemoryPressure before any accounting), then satisfies
// the request from the reservation, growing it against the governor when
// used+n exceeds the current grant. A denial leaves the reservation exactly
// as it was, so the caller can spill and continue.
func (r *Reservation) Charge(site string, worker int, n int64) error {
	if r == nil || r.gov == nil || n <= 0 {
		return nil
	}
	if err := r.gov.cfg.Faults.AllocError(site, worker); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("mem: charge at %s after release: %w", site, errs.ErrMemoryPressure)
	}
	if r.used+n > r.granted {
		need := r.used + n - r.granted
		r.gov.mu.Lock()
		err := r.gov.tryGrow(need, r.tenant, site)
		r.gov.mu.Unlock()
		if err != nil {
			return err
		}
		r.granted += need
	}
	r.used += n
	if r.used > r.peakUsed {
		r.peakUsed = r.used
	}
	return nil
}

// Uncharge returns n previously charged bytes to the reservation (the grant
// against the governor is kept until Release, so a query's budget slice is
// stable once won).
func (r *Reservation) Uncharge(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	if n > r.used {
		n = r.used
	}
	r.used -= n
	r.mu.Unlock()
}

// Available returns the bytes this reservation could still charge without
// growing past the governor's budget: the unused grant plus the governor's
// free headroom. Unlimited governors report a very large value. Operators
// use it to size spill partitions so each fits the remaining budget.
func (r *Reservation) Available() int64 {
	const unbounded = int64(1) << 62
	if r == nil {
		return unbounded
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slack := r.granted - r.used
	g := r.gov
	if g == nil {
		return unbounded
	}
	g.mu.Lock()
	free := unbounded
	if g.cfg.BudgetBytes > 0 {
		free = g.cfg.BudgetBytes - g.inUse
	}
	if cap, ok := g.tenantCaps[r.tenant]; ok && r.tenant != "" {
		if tf := cap - g.tenantUse[r.tenant]; tf < free {
			free = tf
		}
	}
	g.mu.Unlock()
	if free >= unbounded {
		return unbounded
	}
	if free < 0 {
		free = 0
	}
	return slack + free
}

// NoteSpill records one operator spill decision and the simulated bytes it
// wrote to the spill tier; the counters surface in serve metrics and E22.
func (r *Reservation) NoteSpill(bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spills++
	r.spillB += bytes
	r.mu.Unlock()
}

// PeakBytes returns the reservation's high-water mark of charged bytes —
// the query's peak simulated operator footprint.
func (r *Reservation) PeakBytes() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakUsed
}

// Spills returns the spill decisions and spill-tier bytes recorded so far.
func (r *Reservation) Spills() (count, bytes int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spills, r.spillB
}

// Release returns the whole grant to the governor. Idempotent; charges after
// Release fail.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	granted := r.granted
	r.granted = 0
	r.used = 0
	r.mu.Unlock()
	if r.gov != nil {
		r.gov.release(granted, true, r.tenant)
	}
}
