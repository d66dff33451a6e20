package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hwstar/internal/compress"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/table"
)

// testTable builds a three-column relation with deterministic contents, in
// the form the store holds: a ramp, runs, and a small cycling domain.
func testTable(name string, rows int, salt int64) *table.Table {
	cols := [][]int64{make([]int64, rows), make([]int64, rows), make([]int64, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = int64(i)*7 + salt
		cols[1][i] = int64(i/50) + salt
		cols[2][i] = (int64(i) + salt) % 5
	}
	tbl, err := TableFromCols(name, cols)
	if err != nil {
		panic(err)
	}
	return tbl
}

// rawTable builds a one-column, row-built table of the given type: raw
// storage, not a block stream.
func rawTable(v table.Value) *table.Table {
	b := table.NewBuilder("raw-"+v.Kind.String(), table.MustSchema(table.ColumnDef{Name: "v", Type: v.Kind}), 3)
	for i := 0; i < 3; i++ {
		b.MustAppendRow(v)
	}
	return b.Build()
}

// sameContents compares two tables cell by cell.
func sameContents(t *testing.T, a, b *table.Table) {
	t.Helper()
	if a.Name() != b.Name() {
		t.Fatalf("names differ: %q vs %q", a.Name(), b.Name())
	}
	if a.Schema().String() != b.Schema().String() {
		t.Fatalf("schemas differ: %s vs %s", a.Schema(), b.Schema())
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			if ra[c] != rb[c] {
				t.Fatalf("row %d col %d differ: %v vs %v", i, c, ra[c], rb[c])
			}
		}
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustCheckpoint(t *testing.T, s *Store) CheckpointStats {
	t.Helper()
	st, err := s.Checkpoint(context.Background(), nil)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return st
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	orig := []*table.Table{testTable("alpha", 100, 1), testTable("beta", 37, 2), testTable("gamma", 0, 3)}
	for _, tbl := range orig {
		if err := s.Put(tbl); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := mustCheckpoint(t, s)
	if st.Version != 1 || st.Segments != 3 {
		t.Fatalf("checkpoint stats = %+v, want version 1, 3 segments", st)
	}
	s.Close()

	r := mustOpen(t, Options{Dir: dir})
	rec := r.Recovery()
	if rec.ManifestVersion != 1 || rec.TablesTotal != 3 || rec.Fallbacks != 0 {
		t.Fatalf("recovery stats = %+v", rec)
	}
	for _, want := range orig {
		got, cycles, err := r.Load(context.Background(), want.Name())
		if err != nil {
			t.Fatalf("Load(%q): %v", want.Name(), err)
		}
		if cycles != 0 {
			t.Fatalf("hot load of %q priced %v cycles, want 0", want.Name(), cycles)
		}
		sameContents(t, want, got)
	}
}

func TestIncrementalCheckpointReusesCleanSegments(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Put(testTable("a", 50, 1))
	s.Put(testTable("b", 50, 2))
	mustCheckpoint(t, s)
	s.Put(testTable("b", 60, 9)) // only b is dirty now
	st := mustCheckpoint(t, s)
	if st.Version != 2 || st.Segments != 1 {
		t.Fatalf("second checkpoint = %+v, want version 2 with 1 segment", st)
	}
}

func TestCrashSitesNeverLoseCommittedVersion(t *testing.T) {
	// A crash at any durability step must leave the previously committed
	// version fully recoverable with its exact contents.
	sites := []string{"seg:a", "seg:a-rename", "manifest", "manifest-rename", "current", "current-rename"}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			in := fault.New(fault.Config{Seed: 42, CrashSites: map[string]float64{site: 1}, MaxFaults: 1})
			s := mustOpen(t, Options{Dir: dir, Faults: in})
			v1a, v1b := testTable("a", 80, 1), testTable("b", 80, 2)
			s.Put(v1a)
			s.Put(v1b)
			// MaxFaults=1 is already budgeted for the kill below, so the
			// first checkpoint... would trip it. Shield version 1 by
			// spending the site probability only on the second run: use a
			// fresh injector armed after the first commit instead.
			s.opts.Faults = nil
			mustCheckpoint(t, s)
			s.opts.Faults = in

			s.Put(testTable("a", 99, 7)) // dirty for version 2
			_, err := s.Checkpoint(context.Background(), nil)
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("checkpoint with crash at %s: err = %v, want ErrInjectedCrash", site, err)
			}
			if got := in.Counts()[fault.ClassCrash]; got != 1 {
				t.Fatalf("crash fired %d times, want 1", got)
			}

			r := mustOpen(t, Options{Dir: dir})
			if v := r.Recovery().ManifestVersion; v != 1 {
				t.Fatalf("recovered version %d after crash at %s, want 1", v, site)
			}
			got, _, err := r.Load(context.Background(), "a")
			if err != nil {
				t.Fatalf("Load after recovery: %v", err)
			}
			sameContents(t, v1a, got)
			got, _, err = r.Load(context.Background(), "b")
			if err != nil {
				t.Fatalf("Load after recovery: %v", err)
			}
			sameContents(t, v1b, got)
		})
	}
}

func TestTornManifestFallsBack(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(fault.Config{Seed: 7, TornWriteSites: map[string]float64{"manifest": 1}, MaxFaults: 1})
	s := mustOpen(t, Options{Dir: dir})
	want := testTable("a", 120, 3)
	s.Put(want)
	mustCheckpoint(t, s)

	s.opts.Faults = in
	s.Put(testTable("a", 10, 9))
	if _, err := s.Checkpoint(context.Background(), nil); err != nil {
		// The torn write reports success; the checkpoint believes it
		// committed version 2.
		t.Fatalf("torn checkpoint reported failure: %v", err)
	}

	r := mustOpen(t, Options{Dir: dir})
	rec := r.Recovery()
	if rec.ManifestVersion != 1 || rec.Fallbacks != 1 {
		t.Fatalf("recovery = %+v, want fallback to version 1", rec)
	}
	got, _, err := r.Load(context.Background(), "a")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameContents(t, want, got)
}

func TestChecksumFlipDetectedAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	want := testTable("a", 200, 5)
	s.Put(want)
	mustCheckpoint(t, s)

	in := fault.New(fault.Config{Seed: 7, ChecksumFlipSites: map[string]float64{"seg:a": 1}, MaxFaults: 1})
	s.opts.Faults = in
	s.Put(testTable("a", 200, 6))
	if _, err := s.Checkpoint(context.Background(), nil); err != nil {
		t.Fatalf("flipped checkpoint reported failure: %v", err)
	}

	r := mustOpen(t, Options{Dir: dir})
	rec := r.Recovery()
	if rec.ManifestVersion != 1 || rec.Fallbacks != 1 || rec.CorruptSegments != 1 {
		t.Fatalf("recovery = %+v, want corrupt segment and fallback to 1", rec)
	}
	got, _, err := r.Load(context.Background(), "a")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameContents(t, want, got)
}

func TestDeterministicReplay(t *testing.T) {
	// The same seeded schedule into two directories produces identical
	// on-disk outcomes and identical recovery.
	run := func(dir string) RecoveryStats {
		in := fault.New(fault.Config{
			Seed:          99,
			CrashProb:     0.2,
			TornWriteProb: 0.2,
			MaxFaults:     3,
		})
		s := mustOpen(t, Options{Dir: dir, Faults: in})
		for round := 0; round < 6; round++ {
			s.Put(testTable("a", 40+round, int64(round)))
			s.Put(testTable("b", 30, int64(round)*2))
			s.Checkpoint(context.Background(), nil) // errors are part of the schedule
		}
		s.Close()
		r := mustOpen(t, Options{Dir: dir})
		return r.Recovery()
	}
	rec1, rec2 := run(t.TempDir()), run(t.TempDir())
	rec1.WallNanos, rec2.WallNanos = 0, 0
	if rec1 != rec2 {
		t.Fatalf("replay diverged:\n  %+v\n  %+v", rec1, rec2)
	}
	if rec1.ManifestVersion == 0 {
		t.Fatalf("schedule committed nothing: %+v", rec1)
	}
}

func TestTieringEvictsColdAndPricesLoads(t *testing.T) {
	hot, cold := testTable("hot", 400, 1), testTable("cold", 400, 2)
	s := mustOpen(t, Options{
		Dir:      t.TempDir(),
		Machine:  hw.Laptop(),
		HotBytes: hot.Bytes() + 1, // room for exactly one table
	})
	s.Put(hot)
	s.Put(cold)
	// Heat up "hot": the estimator must rank it above "cold".
	for i := 0; i < 10; i++ {
		if _, _, err := s.Load(context.Background(), "hot"); err != nil {
			t.Fatalf("Load: %v", err)
		}
	}
	mustCheckpoint(t, s)
	if got := s.Tier("hot"); got != TierHot {
		t.Fatalf("hot table tier = %q", got)
	}
	if got := s.Tier("cold"); got != TierCold {
		t.Fatalf("cold table tier = %q", got)
	}
	got, cycles, err := s.Load(context.Background(), "cold")
	if err != nil {
		t.Fatalf("cold Load: %v", err)
	}
	if cycles <= 0 {
		t.Fatalf("cold load priced %v cycles, want > 0", cycles)
	}
	sameContents(t, cold, got)
	// A second load is DRAM-resident again.
	if _, cycles, _ = s.Load(context.Background(), "cold"); cycles != 0 {
		t.Fatalf("second cold load priced %v cycles, want 0", cycles)
	}
}

func TestRecoveryLoadsHotEagerlyColdLazily(t *testing.T) {
	dir := t.TempDir()
	hot, cold := testTable("hot", 400, 1), testTable("cold", 400, 2)
	budget := hot.Bytes() + 1 // room for exactly one table
	s := mustOpen(t, Options{Dir: dir, Machine: hw.Laptop(), HotBytes: budget})
	s.Put(hot)
	s.Put(cold)
	for i := 0; i < 10; i++ {
		s.Load(context.Background(), "hot")
	}
	mustCheckpoint(t, s)

	r := mustOpen(t, Options{Dir: dir, Machine: hw.Laptop(), HotBytes: budget})
	rec := r.Recovery()
	if rec.TablesTotal != 2 || rec.TablesHot != 1 {
		t.Fatalf("recovery = %+v, want 2 tables with 1 hot", rec)
	}
	if rec.SimCycles <= 0 {
		t.Fatalf("recovery priced %v cycles, want > 0", rec.SimCycles)
	}
	if _, cycles, _ := r.Load(context.Background(), "hot"); cycles != 0 {
		t.Fatalf("recovered hot table priced %v cycles, want 0", cycles)
	}
	if _, cycles, _ := r.Load(context.Background(), "cold"); cycles <= 0 {
		t.Fatalf("recovered cold table priced %v cycles, want > 0", cycles)
	}
}

func TestCheckpointGovernedByReservation(t *testing.T) {
	// A governor whose whole budget is smaller than the segment image: the
	// charge is denied, the checkpoint degrades instead of OOMing.
	tight := mem.NewGovernor(mem.Config{BudgetBytes: 16 << 10, PerQueryBytes: 512})
	res, err := tight.Reserve(512)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	defer res.Release()
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Put(testTable("big", 50000, 1))
	_, err = s.Checkpoint(context.Background(), res)
	if !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("governed checkpoint err = %v, want ErrMemoryPressure", err)
	}
	if s.Version() != 0 {
		t.Fatalf("version advanced to %d on failed checkpoint", s.Version())
	}
	// With a real budget the same checkpoint succeeds.
	roomy := mem.NewGovernor(mem.Config{BudgetBytes: 16 << 20})
	res2, err := roomy.Reserve(1 << 20)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	defer res2.Release()
	if _, err := s.Checkpoint(context.Background(), res2); err != nil {
		t.Fatalf("Checkpoint with budget: %v", err)
	}
}

// TestCheckpointChargesSegmentImage pins the checkpoint's governor charge to
// the bytes it actually holds: the segment image, which for int64 columns is
// the block stream (about 9 KB here), not the raw columnar footprint (80000
// bytes). A 32 KiB budget must grant it, and the reservation must have seen
// exactly the bytes the checkpoint reports writing.
func TestCheckpointChargesSegmentImage(t *testing.T) {
	cols := [][]int64{make([]int64, 5000), make([]int64, 5000)}
	for i := range cols[0] {
		cols[0][i], cols[1][i] = int64(i), int64(i%97)
	}
	tbl, err := TableFromCols("rel", cols)
	if err != nil {
		t.Fatal(err)
	}
	gov := mem.NewGovernor(mem.Config{BudgetBytes: 32 << 10, PerQueryBytes: 512})
	res, err := gov.Reserve(512)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Put(tbl)
	st, err := s.Checkpoint(context.Background(), res)
	if err != nil {
		t.Fatalf("checkpoint under a budget above the segment image: %v", err)
	}
	if res.PeakBytes() != st.Bytes || st.Bytes >= 80000/4 {
		t.Fatalf("reservation peaked at %d bytes for a %d-byte segment (raw 80000)", res.PeakBytes(), st.Bytes)
	}
}

func TestGCKeepsBoundedManifests(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 8; i++ {
		s.Put(testTable("a", 20+i, int64(i)))
		mustCheckpoint(t, s)
	}
	if got := len(listManifests(dir)); got > manifestKeep {
		t.Fatalf("%d manifests retained, want <= %d", got, manifestKeep)
	}
	// Old segments unreferenced by the retained manifests are gone too.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() == "a-00000001.seg" {
			t.Fatalf("obsolete segment %s survived gc", e.Name())
		}
	}
}

func TestAllManifestsCorruptFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	s.Put(testTable("a", 30, 1))
	mustCheckpoint(t, s)
	// Corrupt every manifest on disk.
	for _, name := range listManifests(dir) {
		path := filepath.Join(dir, name)
		raw, _ := os.ReadFile(path)
		raw[len(raw)/2] ^= 0xFF
		os.WriteFile(path, raw, 0o644)
	}
	_, err := Open(Options{Dir: dir})
	if !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("Open over corrupt manifests: err = %v, want ErrCorrupted", err)
	}
}

func TestValidationErrors(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	if err := s.Put(nil); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("Put(nil) err = %v", err)
	}
	if _, _, err := s.Load(context.Background(), "ghost"); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("Load(ghost) err = %v", err)
	}
	s.Close()
	if err := s.Put(testTable("a", 1, 1)); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("Put after Close err = %v", err)
	}
	if _, err := s.Checkpoint(context.Background(), nil); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("Checkpoint after Close err = %v", err)
	}
	if _, err := Open(Options{}); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("Open with empty dir err = %v", err)
	}
}

// TestColsRoundTrip pins the relation <-> table bridge: TableFromCols
// encodes every column into a block stream (retaining none of the input
// arrays), and ColsFromTable decodes exactly the values back.
func TestColsRoundTrip(t *testing.T) {
	cols := [][]int64{make([]int64, 100), make([]int64, 100)}
	for i := range cols[0] {
		cols[0][i], cols[1][i] = int64(i%7), int64(1000+i)
	}
	tbl, err := TableFromCols("rel", cols)
	if err != nil {
		t.Fatalf("TableFromCols: %v", err)
	}
	for i := range cols {
		if _, ok := tbl.Column(i).(*compress.Compressed); !ok {
			t.Fatalf("column %d is %T, want a block stream", i, tbl.Column(i))
		}
	}
	if want := tbl.Column(0).Bytes() + tbl.Column(1).Bytes(); tbl.Bytes() != want || want >= 2*100*8/4 {
		t.Fatalf("table bytes = %d, want the %d encoded bytes, under a quarter of the raw %d", tbl.Bytes(), want, 2*100*8)
	}
	back, ok := ColsFromTable(tbl)
	if !ok {
		t.Fatal("ColsFromTable rejected an encoded table")
	}
	if !reflect.DeepEqual(back, cols) {
		t.Fatalf("round trip = %v, want %v", back, cols)
	}
	if _, ok := ColsFromTable(rawTable(table.FloatValue(0.5))); ok {
		t.Fatal("ColsFromTable accepted a non-int64 table")
	}
}

// TestPutRefusesNonBlockStreamTable pins what the store holds: block streams
// and nothing else. A float64 table and a raw (unencoded) int64 table are
// both refused up front and leave nothing staged; the segment writer refuses
// them too.
func TestPutRefusesNonBlockStreamTable(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	for _, tbl := range []*table.Table{rawTable(table.FloatValue(0.5)), rawTable(table.IntValue(7))} {
		if err := s.Put(tbl); !errors.Is(err, errs.ErrInvalidInput) {
			t.Fatalf("Put(%s) err = %v, want ErrInvalidInput", tbl.Name(), err)
		}
		if _, err := encodeSegment(tbl); !errors.Is(err, errs.ErrInvalidInput) {
			t.Fatalf("encodeSegment(%s) err = %v, want ErrInvalidInput", tbl.Name(), err)
		}
	}
	if got := s.Tables(); len(got) != 0 {
		t.Fatalf("refused tables were staged: %v", got)
	}
}

// goldenCols is the fixed relation behind testdata/segment_v2.golden: one
// full block and a short one of a narrow FOR column, an RLE column and a
// wide FOR column with negatives.
func goldenCols() [][]int64 {
	const n = 1100
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = int64(i)
		cols[1][i] = int64(i/300) << 40
		cols[2][i] = int64(i)*2654435761%1000003 - 500000
	}
	return cols
}

// TestSegmentGolden pins segment format v2 across the deletion of the
// float64/string payloads: the golden was written by PR 23's encodeSegment
// from TableFromCols("golden", goldenCols()), and this tree must produce
// those bytes and read them back. There is no -update: a diff here is a
// format change, which needs a new version byte and a reader for this one.
func TestSegmentGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "segment_v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := TableFromCols("golden", goldenCols())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeSegment(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, golden) {
		t.Fatalf("encodeSegment wrote %d bytes that differ from the %d-byte golden", len(raw), len(golden))
	}
	back, err := decodeSegment(golden)
	if err != nil {
		t.Fatalf("decodeSegment(golden): %v", err)
	}
	if cols, ok := ColsFromTable(back); !ok || back.Name() != "golden" || !reflect.DeepEqual(cols, goldenCols()) {
		t.Fatalf("golden decoded to table %q (block streams: %v) with other contents", back.Name(), ok)
	}
}
