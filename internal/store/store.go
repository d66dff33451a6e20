// Package store is hwstar's durable storage tier: checkpointed columnar
// segments with per-segment checksums, an atomically-committed versioned
// manifest, crash-recovery replay, and a DRAM/flash tiering policy.
//
// The keynote's argument applies below DRAM too: real hardware crashes,
// tears writes across sector boundaries, and silently flips bits, so a
// durable tier is only trustworthy when exactly those failure modes are
// injected and survived. Every durability step consults the seeded fault
// injector (crash = abort with SIGKILL-equivalent on-disk state, torn write
// = prefix persisted but success reported, checksum flip = silent payload
// corruption), and recovery is deterministic under replay: the same seed
// and operation sequence produce the same on-disk state and the same
// recovered store.
//
// Commit protocol and recovery semantics are documented in manifest.go; the
// segment file format in segment.go. Placement is priced through the hw
// model's flash bandwidth tier: hot tables (by the hotcold estimator, within
// the DRAM budget) are loaded eagerly at recovery, cold tables stay on flash
// and pay the flash transfer on first access.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hwstar/internal/compress"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hotcold"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/table"
)

// ErrInjectedCrash marks a checkpoint aborted by an injected crash fault:
// the process "died" at a durability step, leaving partial state on disk.
// Tests and experiments match it with errors.Is to distinguish a staged kill
// from a real failure; recovery treats the two identically.
var ErrInjectedCrash = errors.New("store: injected crash")

// maxAccessLog bounds the tiering access log; when full the older half is
// dropped (recent slices dominate the smoothed estimate anyway).
const maxAccessLog = 1 << 16

// Options configures a Store.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// Machine prices flash traffic (checkpoint writes, recovery and
	// cold-load reads) in simulated cycles through its flash bandwidth
	// tier. Nil disables pricing (SimCycles stay 0).
	Machine *hw.Machine
	// Faults injects durability faults at checkpoint sites. Nil injects
	// nothing.
	Faults *fault.Injector
	// HotBytes is the DRAM budget of the placement policy: the hottest
	// tables whose summed resident footprint — columns at their compressed
	// size, which is how the store holds them — fits are TierHot
	// (resident, loaded eagerly at recovery); the rest are TierCold
	// (flash-resident, loaded and priced on first access). Zero or negative
	// pins everything hot.
	HotBytes int64
}

// RecoveryStats describes one Open's replay of durable state.
type RecoveryStats struct {
	// ManifestVersion is the version recovery landed on (0 = fresh store).
	ManifestVersion uint64 `json:"manifest_version"`
	// Fallbacks is how many newer manifest versions were rejected as
	// corrupt before one validated end to end.
	Fallbacks int `json:"fallbacks"`
	// CorruptSegments counts segment files that failed checksum or decode
	// validation during recovery (across rejected candidates).
	CorruptSegments int `json:"corrupt_segments"`
	// TablesTotal and TablesHot count recovered tables and how many the
	// placement policy made DRAM-resident.
	TablesTotal int `json:"tables_total"`
	TablesHot   int `json:"tables_hot"`
	// BytesValidated is the segment bytes read and checksum-validated.
	BytesValidated int64 `json:"bytes_validated"`
	// SimCycles is the modeled flash-read cost of the replay; WallNanos
	// the measured wall time.
	SimCycles float64 `json:"sim_cycles"`
	WallNanos int64   `json:"wall_nanos"`
}

// CheckpointStats describes one committed checkpoint.
type CheckpointStats struct {
	// Version is the manifest version the checkpoint committed.
	Version uint64 `json:"version"`
	// Segments is how many segment files were written (dirty tables only;
	// clean tables keep their previous segments).
	Segments int `json:"segments"`
	// Bytes is the segment bytes written; SimCycles the modeled flash-write
	// cost; WallNanos the measured wall time.
	Bytes     int64   `json:"bytes"`
	SimCycles float64 `json:"sim_cycles"`
	WallNanos int64   `json:"wall_nanos"`
}

// entry is the in-memory state of one table.
type entry struct {
	t     *table.Table // nil when cold (flash-resident, not yet loaded)
	seg   string       // segment file backing the last committed version
	rows  int
	bytes int64
	tier  string
	dirty bool // differs from the last committed segment
	id    int64
}

// Store is the durable tier. All methods are safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	cpMu      sync.Mutex // serializes checkpoints (single-flight)
	opts      Options
	version   uint64
	tables    map[string]*entry
	ids       map[string]int64
	nextID    int64
	accessLog []int64
	closed    bool

	recovery RecoveryStats
	lastCP   CheckpointStats
}

// Open opens (or creates) the store at opts.Dir and replays durable state:
// it follows CURRENT to the committed manifest, validates every referenced
// segment checksum, and falls back to the newest older manifest that
// validates end to end when anything is corrupt. Hot tables are loaded into
// DRAM eagerly; cold tables stay on flash until first Load. A directory
// whose manifests are all corrupt is unrecoverable: Open fails wrapping
// errs.ErrCorrupted rather than silently serving an empty store.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty directory: %w", errs.ErrInvalidInput)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{opts: opts, tables: make(map[string]*entry), ids: make(map[string]int64)}
	start := time.Now()
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.recovery.WallNanos = time.Since(start).Nanoseconds()
	return s, nil
}

// recover replays durable state into s. Called once from Open.
func (s *Store) recover() error {
	dir := s.opts.Dir
	removeOrphanTemps(dir)
	candidates := s.recoveryCandidates()
	if len(candidates) == 0 {
		return nil // fresh store, version 0
	}
	var lastErr error
	for _, name := range candidates {
		clear(s.tables) // drop hot tables staged by a rejected candidate
		m, bytesRead, corrupt, err := s.tryManifest(name)
		s.recovery.BytesValidated += bytesRead
		s.recovery.CorruptSegments += corrupt
		if err != nil {
			s.recovery.Fallbacks++
			lastErr = err
			continue
		}
		s.installManifest(m)
		if s.opts.Machine != nil {
			s.recovery.SimCycles = float64(s.recovery.BytesValidated) / s.opts.Machine.FlashBandwidth(1)
		}
		return nil
	}
	return fmt.Errorf("store: no manifest validates (%d candidates, last: %w): %w",
		len(candidates), lastErr, errs.ErrCorrupted)
}

// recoveryCandidates orders manifests for recovery: the one CURRENT commits
// first, then strictly older ones newest-first. Manifests newer than CURRENT
// are uncommitted leftovers of an interrupted checkpoint and are ignored —
// unless CURRENT itself is unreadable (torn), in which case every manifest
// on disk is tried newest-first.
func (s *Store) recoveryCandidates() []string {
	all := listManifests(s.opts.Dir)
	current := readCurrent(s.opts.Dir)
	if current == "" {
		return all
	}
	var out []string
	for _, name := range all {
		if name <= current { // zero-padded names sort like versions
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		// CURRENT parsed but commits nothing on disk — a torn or stale
		// write. Treating it as authoritative would recover an empty store
		// over real manifests; distrust it and try everything.
		return all
	}
	return out
}

// tryManifest validates one manifest candidate and all segments it
// references, returning the decoded manifest on success. Hot tables come
// back decoded; cold tables are validated and dropped.
func (s *Store) tryManifest(name string) (m *Manifest, bytesRead int64, corruptSegments int, err error) {
	raw, err := os.ReadFile(filepath.Join(s.opts.Dir, name))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: read %s: %w: %w", name, err, errs.ErrCorrupted)
	}
	m, err = decodeManifest(raw)
	if err != nil {
		return nil, 0, 0, err
	}
	tbls := make([]string, 0, len(m.Tables))
	for tbl := range m.Tables {
		tbls = append(tbls, tbl)
	}
	sort.Strings(tbls) // deterministic validation order (and stats) under replay
	for _, tbl := range tbls {
		e := m.Tables[tbl]
		t, n, segErr := readSegment(filepath.Join(s.opts.Dir, e.Segment))
		bytesRead += n
		if segErr != nil {
			return nil, bytesRead, 1, fmt.Errorf("store: manifest %s table %q: %w", name, tbl, segErr)
		}
		if e.Tier == TierHot {
			s.stageRecovered(tbl, t, e)
		}
	}
	return m, bytesRead, 0, nil
}

// stageRecovered parks a validated hot table; installManifest adopts it.
func (s *Store) stageRecovered(name string, t *table.Table, e TableEntry) {
	s.tables[name] = &entry{t: t, seg: e.Segment, rows: e.Rows, bytes: e.Bytes, tier: e.Tier, id: s.idFor(name)}
}

// installManifest adopts a fully validated manifest as the store state,
// re-fitting the recorded placement to THIS boot's hot budget: the manifest
// records the tiers of the machine that wrote it, and a restart on a
// smaller-DRAM profile must not inflate the resident set past its own
// Options.HotBytes. Recorded-hot tables keep priority (largest first, then
// name, deterministically) and the overflow is demoted to cold — validated
// already, reloaded from flash on first access. Nothing is promoted at
// boot: there is no access history yet to justify it.
func (s *Store) installManifest(m *Manifest) {
	s.version = m.Version
	names := make([]string, 0, len(m.Tables))
	for name := range m.Tables {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tiering-id assignment
	for _, name := range names {
		e := m.Tables[name]
		if _, hot := s.tables[name]; !hot {
			s.tables[name] = &entry{seg: e.Segment, rows: e.Rows, bytes: e.Bytes, tier: e.Tier, id: s.idFor(name)}
		}
	}
	if s.opts.HotBytes > 0 {
		fit := make([]string, 0, len(names))
		for _, name := range names {
			if s.tables[name].tier == TierHot {
				fit = append(fit, name)
			}
		}
		sort.Slice(fit, func(i, j int) bool {
			a, b := s.tables[fit[i]], s.tables[fit[j]]
			if a.bytes != b.bytes {
				return a.bytes > b.bytes
			}
			return fit[i] < fit[j]
		})
		var resident int64
		for _, name := range fit {
			e := s.tables[name]
			if resident+e.bytes <= s.opts.HotBytes {
				resident += e.bytes
				continue
			}
			e.tier, e.t = TierCold, nil
		}
	}
	s.recovery.ManifestVersion = m.Version
	s.recovery.TablesTotal = len(m.Tables)
	for _, e := range s.tables {
		if e.t != nil {
			s.recovery.TablesHot++
		}
	}
}

// readSegment opens, validates and decodes one segment file, returning the
// table and the bytes validated.
func readSegment(path string) (*table.Table, int64, error) {
	r, err := OpenSegment(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", err, errs.ErrCorrupted)
	}
	defer r.Close()
	t, err := r.ReadTable()
	return t, r.read, err
}

// removeOrphanTemps clears temp files a killed checkpoint left behind.
func removeOrphanTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// idFor returns the stable tiering id of a table name. Callers hold s.mu
// (or run single-threaded inside Open).
func (s *Store) idFor(name string) int64 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := s.nextID
	s.nextID++
	s.ids[name] = id
	return id
}

// Put stages a table: it becomes visible to Load immediately and is written
// out by the next checkpoint. Tables are immutable; putting the same name
// again replaces it (and re-dirties it). The store holds FOR/RLE block
// streams — the form segments persist and the server scans — and nothing
// else: a table with any other column (TableFromCols builds the right kind)
// is refused with errs.ErrInvalidInput. The columns are shared, not copied.
func (s *Store) Put(t *table.Table) error {
	if t == nil {
		return fmt.Errorf("store: nil table: %w", errs.ErrInvalidInput)
	}
	if t.Name() == "" {
		return fmt.Errorf("store: table with empty name: %w", errs.ErrInvalidInput)
	}
	for i := 0; i < t.Schema().NumColumns(); i++ {
		if _, err := blockStream(t, i); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: put %q: %w", t.Name(), errs.ErrClosed)
	}
	id := s.idFor(t.Name())
	s.tables[t.Name()] = &entry{t: t, rows: t.NumRows(), bytes: t.Bytes(), tier: TierHot, dirty: true, id: id}
	s.noteAccess(id)
	return nil
}

// Load returns the named table, reading it from flash when it is cold. The
// access is recorded for the placement policy, and a cold load is priced at
// flash bandwidth (returned cycles accumulate in Stats). Unknown names
// wrap errs.ErrInvalidInput.
func (s *Store) Load(ctx context.Context, name string) (*table.Table, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("store: load %q: %w", name, err)
	}
	s.mu.Lock()
	e, ok := s.tables[name]
	if !ok {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("store: unknown table %q: %w", name, errs.ErrInvalidInput)
	}
	s.noteAccess(e.id)
	if e.t != nil {
		t := e.t
		s.mu.Unlock()
		return t, 0, nil
	}
	seg := e.seg
	s.mu.Unlock()

	// Cold load: read and validate outside the lock — segments are
	// immutable once committed, and a concurrent identical load is
	// harmless (last writer wins with an equal table).
	t, n, err := readSegment(filepath.Join(s.opts.Dir, seg))
	if err != nil {
		return nil, 0, err
	}
	var cycles float64
	if s.opts.Machine != nil {
		cycles = float64(n) / s.opts.Machine.FlashBandwidth(1)
	}
	s.mu.Lock()
	if cur, ok := s.tables[name]; ok && cur.t == nil {
		cur.t = t
	}
	s.mu.Unlock()
	return t, cycles, nil
}

// noteAccess appends to the tiering access log. Callers hold s.mu.
func (s *Store) noteAccess(id int64) {
	if len(s.accessLog) >= maxAccessLog {
		s.accessLog = append(s.accessLog[:0], s.accessLog[maxAccessLog/2:]...)
	}
	s.accessLog = append(s.accessLog, id)
}

// Tables returns the known table names, sorted.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Tier returns the placement tier of the named table ("" when unknown).
func (s *Store) Tier(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.tables[name]; ok {
		return e.tier
	}
	return ""
}

// CreateSegment returns a writer for one table's segment at the given
// version. The caller must Close the writer on every path; Commit makes the
// segment durable. Exposed for the checkpoint path and for tests; most
// callers want Checkpoint.
func (s *Store) CreateSegment(tbl string, version uint64) (*SegmentWriter, error) {
	final := filepath.Join(s.opts.Dir, fmt.Sprintf("%s-%08d.seg", tbl, version))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create %s: %w", filepath.Base(tmp), err)
	}
	return &SegmentWriter{f: f, dir: s.opts.Dir, tmp: tmp, final: final, site: "seg:" + tbl, in: s.opts.Faults}, nil
}

// Checkpoint writes every dirty table as a fresh segment, commits a new
// manifest version, and applies the placement policy. Segment images are
// charged against res (nil skips governance): a checkpoint on a loaded
// server degrades to ErrMemoryPressure instead of OOMing it. Injected
// durability faults surface as ErrInjectedCrash (partial on-disk state
// preserved) or corrupt committed files recovery must survive.
func (s *Store) Checkpoint(ctx context.Context, res *mem.Reservation) (CheckpointStats, error) {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CheckpointStats{}, fmt.Errorf("store: checkpoint: %w", errs.ErrClosed)
	}
	version := s.version + 1
	type job struct {
		name string
		t    *table.Table
	}
	var jobs []job
	manifest := &Manifest{Version: version, Tables: make(map[string]TableEntry, len(s.tables))}
	// snap records which entry object each manifest row was built from: a
	// Put racing the I/O window below replaces the map entry, and state on
	// the replacement must not be touched afterwards — the segment this
	// checkpoint writes holds the old contents.
	snap := make(map[string]*entry, len(s.tables))
	for name, e := range s.tables {
		snap[name] = e
		if e.dirty {
			jobs = append(jobs, job{name, e.t})
		} else {
			manifest.Tables[name] = TableEntry{Segment: e.seg, Rows: e.rows, Bytes: e.bytes, Tier: e.tier}
		}
	}
	tiers := s.placements()
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].name < jobs[j].name })

	stats := CheckpointStats{Version: version}
	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			return stats, fmt.Errorf("store: checkpoint aborted: %w", err)
		}
		n, err := s.writeSegment(j.name, j.t, version, res)
		if err != nil {
			return stats, err
		}
		manifest.Tables[j.name] = TableEntry{
			Segment: fmt.Sprintf("%s-%08d.seg", j.name, version),
			Rows:    j.t.NumRows(), Bytes: j.t.Bytes(),
		}
		stats.Segments++
		stats.Bytes += n
	}
	for name, e := range manifest.Tables {
		e.Tier = tiers[name]
		manifest.Tables[name] = e
	}

	raw, err := encodeManifest(manifest)
	if err != nil {
		return stats, err
	}
	if err := atomicWrite(s.opts.Dir, manifestName(version), raw, s.opts.Faults, "manifest"); err != nil {
		return stats, err
	}
	if err := atomicWrite(s.opts.Dir, currentName, []byte(manifestName(version)+"\n"), s.opts.Faults, "current"); err != nil {
		return stats, err
	}

	s.mu.Lock()
	s.version = version
	for name, e := range s.tables {
		me, ok := manifest.Tables[name]
		if !ok || snap[name] != e {
			// Absent from the manifest, or re-Put while the segments were
			// being written: the durable state is behind this entry, so it
			// stays dirty for the next checkpoint to pick up.
			continue
		}
		e.seg, e.tier, e.dirty = me.Segment, me.Tier, false
		if e.tier == TierCold {
			e.t = nil // evict: cold tables live on flash, reloaded on access
		}
	}
	if s.opts.Machine != nil {
		stats.SimCycles = float64(stats.Bytes) / s.opts.Machine.FlashBandwidth(1)
	}
	stats.WallNanos = time.Since(start).Nanoseconds()
	s.lastCP = stats
	// Snapshot the live segment set for gc: segments the in-memory state
	// still references must survive even when no valid on-disk manifest
	// names them (torn manifest writes report success).
	live := make(map[string]bool, len(s.tables))
	for _, e := range s.tables {
		if e.seg != "" {
			live[e.seg] = true
		}
	}
	s.mu.Unlock()

	gc(s.opts.Dir, live)
	return stats, nil
}

// writeSegment encodes and durably writes one table's segment, charging the
// segment image — the only bytes a checkpoint holds beyond the resident
// table — against res for the duration.
func (s *Store) writeSegment(name string, t *table.Table, version uint64, res *mem.Reservation) (int64, error) {
	hdrJSON, size, err := segmentHeader(t)
	if err != nil {
		return 0, err
	}
	if res != nil {
		if err := res.Charge("checkpoint-encode", -1, int64(size)); err != nil {
			return 0, fmt.Errorf("store: checkpoint %q: %w", name, err)
		}
		defer res.Uncharge(int64(size))
	}
	w, err := s.CreateSegment(name, version)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	if err := w.writeRaw(appendSegment(make([]byte, 0, size), hdrJSON, t)); err != nil {
		return 0, err
	}
	if err := w.Commit(); err != nil {
		return 0, err
	}
	return int64(size), nil
}

// placements runs the tiering policy: smooth the access log, rank tables by
// estimated frequency, and pin the hottest within the DRAM budget. Callers
// hold s.mu.
func (s *Store) placements() map[string]string {
	out := make(map[string]string, len(s.tables))
	if s.opts.HotBytes <= 0 {
		for name := range s.tables {
			out[name] = TierHot
		}
		return out
	}
	est, err := hotcold.NewEstimator().Estimate(s.accessLog)
	if err != nil {
		est = map[int64]float64{}
	}
	type cand struct {
		name  string
		bytes int64
		f     float64
		id    int64
	}
	cands := make([]cand, 0, len(s.tables))
	for name, e := range s.tables {
		cands = append(cands, cand{name, e.bytes, est[e.id], e.id})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].f != cands[j].f {
			return cands[i].f > cands[j].f
		}
		return cands[i].id < cands[j].id
	})
	var used int64
	for _, c := range cands {
		if c.f > 0 && used+c.bytes <= s.opts.HotBytes {
			out[c.name] = TierHot
			used += c.bytes
		} else {
			out[c.name] = TierCold
		}
	}
	return out
}

// Version returns the last committed manifest version (0 before the first
// checkpoint of a fresh store).
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Recovery returns the stats of the Open that created this store.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// LastCheckpoint returns the stats of the most recent committed checkpoint.
func (s *Store) LastCheckpoint() CheckpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCP
}

// Close marks the store closed; subsequent Puts and Checkpoints fail with
// errs.ErrClosed. It never discards staged data — callers checkpoint first
// when they want durability.
func (s *Store) Close() error {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// TableFromCols encodes a server relation ([][]int64 columns) as a Table
// with block-stream columns c0..cN: the one representation Register, the
// replicas of a stripe and the segment file all share.
func TableFromCols(name string, cols [][]int64) (*table.Table, error) {
	defs := make([]table.ColumnDef, len(cols))
	data := make([]table.ColumnData, len(cols))
	for i, c := range cols {
		defs[i] = table.ColumnDef{Name: "c" + strconv.Itoa(i), Type: table.Int64}
		data[i] = compress.Encode(c)
	}
	schema, err := table.NewSchema(defs...)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return table.FromColumns(name, schema, data)
}

// ColsFromTable decodes a table of block-stream columns back into [][]int64
// — for verification, not serving. Returns false when any column is not one.
func ColsFromTable(t *table.Table) ([][]int64, bool) {
	cols := make([][]int64, t.Schema().NumColumns())
	for i := range cols {
		d, ok := t.Column(i).(*compress.Compressed)
		if !ok {
			return nil, false
		}
		cols[i] = d.Decode()
	}
	return cols, true
}
