// Package cache implements a trace-driven, set-associative cache and TLB
// simulator. It stands in for the hardware performance counters the keynote's
// performance-engineering methodology relies on: algorithms run in a traced
// mode that feeds their memory accesses through a simulated hierarchy, and
// experiments report hit/miss counts per level exactly as a profiler would
// report counter values on real hardware.
//
// The simulator models inclusive caches with true-LRU replacement, which is
// the standard baseline in the architecture literature and sufficient to
// reproduce the qualitative effects the experiments target (working-set
// cliffs, pointer-chasing penalties, layout-dependent line utilization).
package cache

import (
	"fmt"

	"hwstar/internal/hw"
)

// Config describes one simulated cache level.
type Config struct {
	// Name labels the level in statistics ("L1d", "L2", ...).
	Name string
	// SizeBytes is the total capacity; LineBytes the line size; Assoc the
	// set associativity. SizeBytes must be divisible by LineBytes*Assoc.
	SizeBytes int64
	LineBytes int64
	Assoc     int
	// LatencyCycles is the cost of a hit in this level.
	LatencyCycles float64
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: all parameters must be positive", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	setBytes := c.LineBytes * int64(c.Assoc)
	if c.SizeBytes%setBytes != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by set size %d", c.Name, c.SizeBytes, setBytes)
	}
	return nil
}

// Stats holds access statistics for one level.
type Stats struct {
	Name      string
	Hits      int64
	Misses    int64
	Evictions int64
}

// Accesses returns hits + misses.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// MissRate returns misses / accesses, or 0 when no accesses happened.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d accesses, %d misses (%.2f%%)", s.Name, s.Accesses(), s.Misses, 100*s.MissRate())
}

// Cache is one set-associative level with LRU replacement. It is not safe for
// concurrent use; traced runs are single-goroutine by design (simulated
// parallelism happens in the scheduler, not in traced mode).
type Cache struct {
	cfg       Config
	sets      [][]uint64 // per set: line tags ordered most- to least-recently used
	numSets   uint64
	lineShift uint
	stats     Stats
}

// New builds a cache from cfg, panicking on invalid configuration (callers
// construct caches from vetted machine profiles; a bad profile is a
// programming error, not runtime input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := uint64(cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc)))
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	sets := make([][]uint64, numSets)
	for i := range sets {
		sets[i] = make([]uint64, 0, cfg.Assoc)
	}
	return &Cache{cfg: cfg, sets: sets, numSets: numSets, lineShift: shift, stats: Stats{Name: cfg.Name}}
}

// Access touches addr. It returns true on a hit. On a miss the line is
// installed, evicting the LRU line of its set when the set is full.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := c.sets[line%c.numSets]
	for i, tag := range set {
		if tag == line {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	c.install(line)
	return false
}

// install places line as MRU in its set, evicting if necessary.
func (c *Cache) install(line uint64) {
	idx := line % c.numSets
	set := c.sets[idx]
	if len(set) < c.cfg.Assoc {
		set = append(set, 0)
	} else {
		c.stats.Evictions++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	c.sets[idx] = set
}

// Contains reports whether addr's line is currently cached, without updating
// LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	for _, tag := range c.sets[line%c.numSets] {
		if tag == line {
			return true
		}
	}
	return false
}

// Stats returns a copy of the current statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics but keeps cache contents (useful to warm
// up, then measure).
func (c *Cache) ResetStats() {
	name := c.stats.Name
	c.stats = Stats{Name: name}
}

// TLB simulates a fully-associative translation lookaside buffer with LRU
// replacement at page granularity.
type TLB struct {
	pageShift uint
	entries   int
	pages     []uint64 // MRU-first
	stats     Stats
}

// NewTLB builds a TLB with the given entry count and page size (a power of
// two).
func NewTLB(entries int, pageBytes int64) *TLB {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("cache: invalid TLB parameters: %d entries, %d page bytes", entries, pageBytes))
	}
	shift := uint(0)
	for p := pageBytes; p > 1; p >>= 1 {
		shift++
	}
	return &TLB{pageShift: shift, entries: entries, pages: make([]uint64, 0, entries), stats: Stats{Name: "TLB"}}
}

// Access translates addr, returning true on a TLB hit.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageShift
	for i, p := range t.pages {
		if p == page {
			copy(t.pages[1:i+1], t.pages[:i])
			t.pages[0] = page
			t.stats.Hits++
			return true
		}
	}
	t.stats.Misses++
	if len(t.pages) < t.entries {
		t.pages = append(t.pages, 0)
	} else {
		t.stats.Evictions++
	}
	copy(t.pages[1:], t.pages[:len(t.pages)-1])
	t.pages[0] = page
	return false
}

// Stats returns a copy of the TLB statistics.
func (t *TLB) Stats() Stats { return t.stats }

// Hierarchy chains cache levels (closest first) plus a TLB and prices every
// access in simulated cycles. Levels are inclusive: a line missing in L1 is
// installed in every level on its way in from memory.
type Hierarchy struct {
	levels     []*Cache
	tlb        *TLB
	memLatency float64
	tlbMiss    float64
	accesses   int64
	cycles     float64
}

// NewHierarchy builds a hierarchy from explicit levels.
func NewHierarchy(levels []*Cache, tlb *TLB, memLatencyCycles, tlbMissCycles float64) *Hierarchy {
	if len(levels) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	return &Hierarchy{levels: levels, tlb: tlb, memLatency: memLatencyCycles, tlbMiss: tlbMissCycles}
}

// FromMachine builds the hierarchy described by a hw.Machine profile.
func FromMachine(m *hw.Machine) *Hierarchy {
	levels := make([]*Cache, len(m.Caches))
	for i, cl := range m.Caches {
		levels[i] = New(Config{
			Name:          cl.Name,
			SizeBytes:     cl.SizeBytes,
			LineBytes:     cl.LineBytes,
			Assoc:         cl.Assoc,
			LatencyCycles: cl.LatencyCycles,
		})
	}
	return NewHierarchy(levels, NewTLB(m.TLBEntries, m.PageBytes), m.MemLatencyCycles, m.TLBMissCycles)
}

// Access simulates one load/store at addr and returns its latency in cycles.
func (h *Hierarchy) Access(addr uint64) float64 {
	h.accesses++
	lat := 0.0
	if h.tlb != nil && !h.tlb.Access(addr) {
		lat += h.tlbMiss
	}
	hitLevel := -1
	for i, c := range h.levels {
		if c.Access(addr) {
			hitLevel = i
			break
		}
	}
	if hitLevel >= 0 {
		lat += h.levels[hitLevel].cfg.LatencyCycles
	} else {
		lat += h.memLatency
	}
	// The hierarchy is inclusive: every level the access missed in has
	// already installed the line (Cache.Access installs on miss), so by the
	// time control reaches here all inner levels hold the line.
	h.cycles += lat
	return lat
}

// AccessRange simulates a sequential sweep of n bytes starting at addr with
// the given stride, returning total cycles.
func (h *Hierarchy) AccessRange(addr uint64, n int64, stride int64) float64 {
	if stride <= 0 {
		stride = 1
	}
	total := 0.0
	for off := int64(0); off < n; off += stride {
		total += h.Access(addr + uint64(off))
	}
	return total
}

// Levels returns per-level statistics, innermost first, followed by the TLB
// stats when a TLB is configured.
func (h *Hierarchy) Levels() []Stats {
	out := make([]Stats, 0, len(h.levels)+1)
	for _, c := range h.levels {
		out = append(out, c.Stats())
	}
	if h.tlb != nil {
		out = append(out, h.tlb.Stats())
	}
	return out
}

// Accesses returns the number of simulated accesses.
func (h *Hierarchy) Accesses() int64 { return h.accesses }

// Cycles returns the total simulated cycles spent on memory accesses.
func (h *Hierarchy) Cycles() float64 { return h.cycles }

// ResetStats zeroes statistics but preserves cache contents.
func (h *Hierarchy) ResetStats() {
	for _, c := range h.levels {
		c.ResetStats()
	}
	h.accesses = 0
	h.cycles = 0
}
