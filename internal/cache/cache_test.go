package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
)

func smallCache() *Cache {
	// 4 sets × 2 ways × 64B lines = 512 bytes.
	return New(Config{Name: "T", SizeBytes: 512, LineBytes: 64, Assoc: 2, LatencyCycles: 4})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Assoc: 2},
		{Name: "npot-line", SizeBytes: 512, LineBytes: 48, Assoc: 2},
		{Name: "indivisible", SizeBytes: 500, LineBytes: 64, Assoc: 2},
		{Name: "neg-assoc", SizeBytes: 512, LineBytes: 64, Assoc: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be invalid", cfg.Name)
		}
	}
	good := Config{Name: "ok", SizeBytes: 512, LineBytes: 64, Assoc: 2, LatencyCycles: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on invalid config")
		}
	}()
	New(Config{Name: "bad"})
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 4 sets, 2-way; set stride is 4*64 = 256 bytes
	// Three lines mapping to set 0: addresses 0, 256, 512.
	c.Access(0)
	c.Access(256)
	c.Access(512) // evicts line 0 (LRU)
	if c.Contains(0) {
		t.Fatal("line 0 should have been evicted")
	}
	if !c.Contains(256) || !c.Contains(512) {
		t.Fatal("lines 256 and 512 should be resident")
	}
	// Touch 256 to make it MRU, then install another conflicting line.
	c.Access(256)
	c.Access(768) // should evict 512, not 256
	if !c.Contains(256) {
		t.Fatal("MRU line 256 should survive")
	}
	if c.Contains(512) {
		t.Fatal("line 512 should have been evicted")
	}
	if got := c.Stats().Evictions; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
}

func TestWorkingSetSmallerThanCacheOnlyColdMisses(t *testing.T) {
	c := New(Config{Name: "T", SizeBytes: 4096, LineBytes: 64, Assoc: 4, LatencyCycles: 4})
	// 32 lines working set in a 64-line cache: after warmup, zero misses.
	for round := 0; round < 5; round++ {
		for addr := uint64(0); addr < 2048; addr += 64 {
			c.Access(addr)
		}
	}
	s := c.Stats()
	if s.Misses != 32 {
		t.Fatalf("misses = %d, want 32 cold misses only", s.Misses)
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := smallCache() // 8 lines total
	// 16-line working set swept cyclically with LRU: every access misses.
	for round := 0; round < 3; round++ {
		for addr := uint64(0); addr < 1024; addr += 64 {
			c.Access(addr)
		}
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Fatalf("cyclic sweep over 2× cache should never hit with LRU, got %d hits", s.Hits)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := smallCache()
	c.Access(0)
	c.Access(256)
	before := c.Stats()
	_ = c.Contains(0)
	_ = c.Contains(999999)
	if c.Stats() != before {
		t.Fatal("Contains must not change statistics")
	}
	// LRU order unchanged: installing a third conflicting line should still
	// evict 0 (the LRU), proving Contains(0) did not promote it.
	c.Access(512)
	if c.Contains(0) {
		t.Fatal("Contains must not refresh LRU position")
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	c := smallCache()
	c.Access(0)
	c.ResetStats()
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("ResetStats left stats %+v", s)
	}
	if !c.Access(0) {
		t.Fatal("ResetStats must preserve contents")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Name: "x", Hits: 3, Misses: 1}
	if s.Accesses() != 4 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate = %f", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty miss rate should be 0")
	}
	if s.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(2, 4096)
	if tlb.Access(0) {
		t.Fatal("cold TLB access should miss")
	}
	if !tlb.Access(4095) {
		t.Fatal("same-page access should hit")
	}
	tlb.Access(4096) // page 1
	tlb.Access(8192) // page 2, evicts page 0
	if tlb.Access(0) {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestNewTLBPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB should panic on non-power-of-two page size")
		}
	}()
	NewTLB(4, 3000)
}

func TestHierarchyLatencies(t *testing.T) {
	l1 := New(Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Assoc: 2, LatencyCycles: 4})
	l2 := New(Config{Name: "L2", SizeBytes: 4096, LineBytes: 64, Assoc: 4, LatencyCycles: 12})
	h := NewHierarchy([]*Cache{l1, l2}, nil, 200, 0)

	if got := h.Access(0); got != 200 {
		t.Fatalf("cold access latency = %f, want 200", got)
	}
	if got := h.Access(0); got != 4 {
		t.Fatalf("L1 hit latency = %f, want 4", got)
	}
	// Evict from L1 by conflicting lines (L1 set stride = 256), then the
	// line should still hit in L2 (inclusive fill).
	h.Access(256)
	h.Access(512)
	if got := h.Access(0); got != 12 {
		t.Fatalf("L2 hit latency = %f, want 12", got)
	}
	if h.Accesses() != 5 {
		t.Fatalf("accesses = %d, want 5", h.Accesses())
	}
	if h.Cycles() <= 0 {
		t.Fatal("cycles should accumulate")
	}
}

func TestHierarchyTLBMissCost(t *testing.T) {
	l1 := New(Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Assoc: 2, LatencyCycles: 4})
	h := NewHierarchy([]*Cache{l1}, NewTLB(1, 4096), 100, 30)
	if got := h.Access(0); got != 130 {
		t.Fatalf("cold access with TLB miss = %f, want 130", got)
	}
	if got := h.Access(64); got != 100 {
		t.Fatalf("same-page cold line = %f, want 100 (TLB hit)", got)
	}
	if got := h.Access(4096); got != 130 {
		t.Fatalf("new page = %f, want 130", got)
	}
}

func TestHierarchyAccessRange(t *testing.T) {
	l1 := New(Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Assoc: 2, LatencyCycles: 4})
	h := NewHierarchy([]*Cache{l1}, nil, 100, 0)
	h.AccessRange(0, 256, 64) // 4 lines, all cold
	if h.Accesses() != 4 {
		t.Fatalf("accesses = %d, want 4", h.Accesses())
	}
	if got := h.AccessRange(0, 128, 0); got <= 0 {
		t.Fatal("stride 0 should default to 1 and return positive cycles")
	}
}

func TestFromMachine(t *testing.T) {
	m := hw.Server2S()
	h := FromMachine(m)
	stats := h.Levels()
	if len(stats) != len(m.Caches)+1 {
		t.Fatalf("levels = %d, want %d caches + TLB", len(stats), len(m.Caches))
	}
	if stats[0].Name != "L1d" || stats[len(stats)-1].Name != "TLB" {
		t.Fatalf("unexpected level names: %v", stats)
	}
	h.Access(0)
	h.ResetStats()
	if h.Accesses() != 0 {
		t.Fatal("ResetStats should zero access count")
	}
}

// Property: the simulator is deterministic — the same trace yields identical
// statistics across runs.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		run := func() Stats {
			c := smallCache()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < int(n); i++ {
				c.Access(uint64(rng.Intn(4096)))
			}
			return c.Stats()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses equals the number of accesses, and evictions never
// exceed misses.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		s := c.Stats()
		return s.Accesses() == int64(len(addrs)) && s.Evictions <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fully-associative cache (one set) with capacity >= distinct
// lines accessed only takes cold misses.
func TestFullyAssociativeColdMissProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		c := New(Config{Name: "FA", SizeBytes: 64 * 256, LineBytes: 64, Assoc: 256, LatencyCycles: 1})
		distinct := map[uint64]bool{}
		for _, a := range addrs {
			line := uint64(a) // each uint8 is its own line after shift? ensure distinct lines
			c.Access(line * 64)
			distinct[line] = true
		}
		return c.Stats().Misses == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fill inclusion — immediately after any access, the touched line
// is resident at every level of the hierarchy (misses install on the way in).
func TestFillInclusionProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		l1 := New(Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Assoc: 2, LatencyCycles: 4})
		l2 := New(Config{Name: "L2", SizeBytes: 16384, LineBytes: 64, Assoc: 8, LatencyCycles: 12})
		h := NewHierarchy([]*Cache{l1, l2}, nil, 100, 0)
		for _, a := range addrs {
			h.Access(uint64(a))
			if !l1.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
