// Package store is hwstar's durable storage tier: checkpointed columnar
// segments with per-segment checksums, an atomically-committed versioned
// manifest, and crash-recovery replay.
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
// Every file is written by one commit function (manifest.go, with the
// recovery semantics); segments and manifests share one checksummed
// envelope (segment.go, with the segment format). Every stored table is
// resident: recovery loads each one eagerly, and its flash reads are priced
// through the hw model's flash bandwidth tier.
package store

import (
	"context"
	"errors"
	"fmt"
	"io"
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
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/table"
)

// ErrInjectedCrash marks a checkpoint aborted by an injected crash fault:
// the process "died" at a durability step, leaving partial state on disk.
// Tests and experiments match it with errors.Is to distinguish a staged kill
// from a real failure; recovery treats the two identically.
var ErrInjectedCrash = errors.New("store: injected crash")

// Options configures a Store.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// Machine prices flash traffic (checkpoint writes and recovery reads)
	// in simulated cycles through its flash bandwidth tier. Nil disables
	// pricing (SimCycles stay 0).
	Machine *hw.Machine
	// Faults injects durability faults at checkpoint sites. Nil injects
	// nothing.
	Faults *fault.Injector
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
	// TablesTotal counts recovered tables, every one of them resident.
	TablesTotal int `json:"tables_total"`
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
	t     *table.Table
	seg   string // segment file backing the last committed version
	dirty bool   // differs from the last committed segment
	// lease owns t's payload when Register encoded it: the entry holds a
	// reference while it holds t (nil once pinned by Load).
	lease *mem.Lease
}

// Store is the durable tier. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	cpMu    sync.Mutex // serializes checkpoints (single-flight)
	opts    Options
	version uint64
	tables  map[string]*entry
	closed  bool

	recovery RecoveryStats
	lastCP   CheckpointStats

	// testHold, when non-nil, stops every writeSegment before it writes a
	// byte: it sends on the channel, then receives. Tests use it to replace
	// a table while its checkpoint holds it.
	testHold chan struct{}
}

// Open opens (or creates) the store at opts.Dir and replays durable state:
// it follows CURRENT to the committed manifest, validates every referenced
// segment checksum, and falls back to the newest older manifest that
// validates end to end when anything is corrupt. Every table is loaded
// eagerly, whatever tier an older manifest recorded for it. A directory
// whose manifests are all corrupt is unrecoverable: Open fails wrapping
// errs.ErrCorrupted rather than silently serving an empty store.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty directory: %w", errs.ErrInvalidInput)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{opts: opts, tables: make(map[string]*entry)}
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
		clear(s.tables) // drop tables staged by a rejected candidate
		m, bytesRead, corrupt, err := s.tryManifest(name)
		s.recovery.BytesValidated += bytesRead
		s.recovery.CorruptSegments += corrupt
		if err != nil {
			s.recovery.Fallbacks++
			lastErr = err
			continue
		}
		s.version = m.Version
		s.recovery.ManifestVersion = m.Version
		s.recovery.TablesTotal = len(m.Tables)
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
// references, returning the decoded manifest on success. Every table it
// validates is staged in s.tables; the tier an older manifest recorded is
// ignored.
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
		s.tables[tbl] = &entry{t: t, seg: e.Segment}
	}
	return m, bytesRead, 0, nil
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

// Put stages a table: it becomes visible to Load immediately and is written
// out by the next checkpoint. Tables are immutable; putting the same name
// again replaces it (and re-dirties it). The store holds FOR/RLE block
// streams — the form segments persist and the server scans — and nothing
// else: a table with any other column (TableFromCols builds the right kind)
// is refused with errs.ErrInvalidInput. The columns are shared, not copied.
func (s *Store) Put(t *table.Table) error { return s.PutLeased(t, nil) }

// PutLeased is Put for a table whose payload l owns (TableFromColsLeased):
// the entry holds a reference to l until a replacing Put or a Load, and
// a checkpoint writing t holds its own.
func (s *Store) PutLeased(t *table.Table, l *mem.Lease) error {
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
	if old := s.tables[t.Name()]; old != nil {
		old.lease.Release()
	}
	l.Acquire()
	s.tables[t.Name()] = &entry{t: t, dirty: true, lease: l}
	return nil
}

// Load returns the named table. Unknown names wrap errs.ErrInvalidInput.
// Load has no release, so a leased table it hands out is pinned: its entry's
// reference is never dropped.
func (s *Store) Load(ctx context.Context, name string) (*table.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("store: load %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown table %q: %w", name, errs.ErrInvalidInput)
	}
	e.lease = nil // pin
	return e.t, nil
}

// Drop removes the named table, if the store holds it, so the next
// checkpoint's manifest omits it, and drops the entry's reference to a
// leased table: a checkpoint already writing the table holds its own and
// commits the snapshot it took.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.tables[name]; ok {
		delete(s.tables, name)
		e.lease.Release()
	}
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

// Checkpoint writes every dirty table as a fresh segment and commits a new
// manifest version. Each segment's staging buffer is charged against res
// (nil skips governance): a checkpoint on a loaded server degrades to
// ErrMemoryPressure instead of OOMing it. Injected durability faults surface
// as ErrInjectedCrash (partial on-disk state preserved) or corrupt committed
// files recovery must survive.
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
		name  string
		t     *table.Table
		lease *mem.Lease
	}
	var jobs []job
	defer func() {
		for _, j := range jobs {
			j.lease.Release()
		}
	}()
	manifest := &Manifest{Version: version, Tables: make(map[string]TableEntry, len(s.tables))}
	// snap records which entry object each manifest row was built from: a
	// Put racing the I/O window below replaces the map entry, and state on
	// the replacement must not be touched afterwards — the segment this
	// checkpoint writes holds the old contents.
	snap := make(map[string]*entry, len(s.tables))
	for name, e := range s.tables {
		snap[name] = e
		if e.dirty {
			e.lease.Acquire() // a Put racing the write must not recycle e.t
			jobs = append(jobs, job{name, e.t, e.lease})
		} else {
			manifest.Tables[name] = tableEntry(e.seg, e.t)
		}
	}
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
		manifest.Tables[j.name] = tableEntry(segmentName(j.name, version), j.t)
		stats.Segments++
		stats.Bytes += n
	}

	raw, err := encodeManifest(manifest)
	if err != nil {
		return stats, err
	}
	if err := commitBytes(s.opts.Dir, manifestName(version), "manifest", s.opts.Faults, raw); err != nil {
		return stats, err
	}
	if err := commitBytes(s.opts.Dir, currentName, "current", s.opts.Faults, []byte(manifestName(version)+"\n")); err != nil {
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
		e.seg, e.dirty = me.Segment, false
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

// segmentName is the file of table tbl's segment committed at version.
func segmentName(tbl string, version uint64) string { return fmt.Sprintf("%s-%08d.seg", tbl, version) }

// writeSegment commits one table's segment at the "seg:"+name fault site,
// streaming it through a pooled staging buffer and charging what the
// checkpoint holds beyond the resident table — the staging buffer,
// min(size, segStage) bytes — against res for the duration.
func (s *Store) writeSegment(name string, t *table.Table, version uint64, res *mem.Reservation) (int64, error) {
	head, size, err := segmentHeader(t)
	if err != nil {
		return 0, err
	}
	if held := int64(min(size, segStage)); res != nil {
		if err := res.Charge("checkpoint-encode", -1, held); err != nil {
			return 0, fmt.Errorf("store: checkpoint %q: %w", name, err)
		}
		defer res.Uncharge(held)
	}
	if c := s.testHold; c != nil {
		c <- struct{}{}
		<-c
	}
	err = commit(s.opts.Dir, segmentName(name, version), "seg:"+name, s.opts.Faults, size, func(w io.Writer) error {
		stage := stages.Get().(*[segStage]byte)
		defer stages.Put(stage)
		n := min(size, segStage)
		return (&segStream{w: w, buf: stage[:n:n]}).table(head, t)
	})
	if err != nil {
		return 0, err
	}
	return int64(size), nil
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
	return TableFromColsLeased(name, cols, nil)
}

// TableFromColsLeased is TableFromCols with every column's block headers
// and payload taken from l (compress.EncodeLeased).
func TableFromColsLeased(name string, cols [][]int64, l *mem.Lease) (*table.Table, error) {
	defs := make([]table.ColumnDef, len(cols))
	data := make([]table.ColumnData, len(cols))
	for i, c := range cols {
		defs[i] = table.ColumnDef{Name: "c" + strconv.Itoa(i), Type: table.Int64}
		data[i] = compress.EncodeLeased(c, l)
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
