package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/scan"
	"hwstar/internal/store"
)

func openStore(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	opts.Dir = dir
	if opts.Machine == nil {
		opts.Machine = hw.Server2S()
	}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDurableRestartServesCommittedData is the serve-level durability loop:
// register, checkpoint, close, reopen the same directory, and the restarted
// server answers the same scans from its recovered tables.
func TestDurableRestartServesCommittedData(t *testing.T) {
	dir := t.TempDir()
	cols, expect := testRelation(4000)
	want := expect(100, 5000)

	st := openStore(t, dir, store.Options{})
	s := newServer(t, Options{Store: st})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Segments != 1 {
		t.Fatalf("checkpoint wrote %d segments, want 1", cp.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, store.Options{})
	defer st2.Close()
	s2 := newServer(t, Options{Store: st2})
	defer s2.Close()
	resp, err := s2.Submit(context.Background(), Request{Op: OpScan, Table: "events", Query: scan.Query{FilterCol: 0, Lo: 100, Hi: 5000, AggCol: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sum != want {
		t.Fatalf("recovered scan sum = %d, want %d", resp.Sum, want)
	}
	h := s2.Health()
	if !h.Durable || h.State != "ok" {
		t.Fatalf("health durable=%v state=%q, want durable and ok", h.Durable, h.State)
	}
	if h.Recovery.TablesTotal != 1 {
		t.Fatalf("recovery saw %d tables, want 1", h.Recovery.TablesTotal)
	}
	if h.ReplayedTables != 1 {
		t.Fatalf("replayed %d tables, want 1", h.ReplayedTables)
	}
}

// TestCloseFlushesStagedTables checks the shutdown flush: a durable server
// closed without any explicit Checkpoint still restarts with its registered
// tables intact.
func TestCloseFlushesStagedTables(t *testing.T) {
	dir := t.TempDir()
	cols, expect := testRelation(2000)
	want := expect(0, 10000)

	st := openStore(t, dir, store.Options{})
	s := newServer(t, Options{Store: st})
	if err := s.Register("flushed", cols); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, store.Options{})
	defer st2.Close()
	s2 := newServer(t, Options{Store: st2})
	defer s2.Close()
	resp, err := s2.Submit(context.Background(), Request{Op: OpScan, Table: "flushed", Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 10000, AggCol: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sum != want {
		t.Fatalf("flushed scan sum = %d, want %d", resp.Sum, want)
	}
}

// TestDurableServerAnswersOnReturn pins the lifecycle contract: a server
// built over an opened store serves that store's tables when New returns —
// there is no replay window to wait out or be shed in. One P, so nothing
// but New itself can have run between New and the Submit on the next line.
func TestDurableServerAnswersOnReturn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	cols, expect := testRelation(4000)
	want := expect(100, 5000)

	st := openStore(t, dir, store.Options{})
	s := newServer(t, Options{Store: st})
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // the shutdown flush checkpoints
		t.Fatal(err)
	}
	st.Close()

	for restart := 0; restart < 50; restart++ {
		st := openStore(t, dir, store.Options{})
		s := newServer(t, Options{Store: st})
		resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "events", Query: scan.Query{FilterCol: 0, Lo: 100, Hi: 5000, AggCol: 1}})
		if err != nil || resp.Sum != want {
			t.Fatalf("restart %d: first submit: sum %d, err %v; want %d", restart, resp.Sum, err, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
}

// TestRegisterOnClosedServerLeavesStoreUntouched: a registration the server
// refuses must not take effect anywhere. Staging the table before the closed
// check left it in the store, where a later checkpoint (behind a router:
// the reaper's Close racing a Register) would persist a stripe of a
// registration that reported failure.
func TestRegisterOnClosedServerLeavesStoreUntouched(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{})
	defer st.Close()
	s := newServer(t, Options{Store: st})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("late", [][]int64{{1, 2}, {3, 4}}); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("register on a closed server: %v, want ErrClosed", err)
	}
	if got := st.Tables(); len(got) != 0 {
		t.Fatalf("refused registration staged %v in the store", got)
	}
}

// TestConcurrentRegisterRacesRecovery hammers Register from many goroutines
// on a durable server the moment New has returned: every call must land
// fully (table scannable with the right sum) — never a shed, a partial
// registration or a data race (this test is in the race-core set).
func TestConcurrentRegisterRacesRecovery(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{})
	defer st.Close()
	s := newServer(t, Options{Store: st})
	defer s.Close()

	const registrars = 8
	const rounds = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < registrars; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("t%d-%d", g, i)
				if err := s.Register(name, [][]int64{{int64(i), int64(i + 1)}, {10, 20}}); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 0; g < registrars; g++ {
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("t%d-%d", g, i)
			resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: name, Query: scan.Query{FilterCol: 0, Lo: -1 << 40, Hi: 1 << 40, AggCol: 1}})
			if err != nil {
				t.Fatalf("table %s not servable: %v", name, err)
			}
			if resp.Sum != 30 {
				t.Fatalf("table %s sum = %d, want 30", name, resp.Sum)
			}
		}
	}
	if got := len(st.Tables()); got != registrars*rounds {
		t.Fatalf("store staged %d tables, want %d", got, registrars*rounds)
	}
}

// TestRecoversTableRecordedCold boots against testdata/cold_manifest, a
// data dir whose committed manifest (v2) records "small" in the cold tier,
// as a store with a DRAM budget that fit only "big" wrote it: 1000 rows of
// testRelation as "big", {1,2,3} x {10,20,30} as "small". Recovery ignores
// the recorded tier, so both tables are registered at boot and served.
func TestRecoversTableRecordedCold(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "cold_manifest"))); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir, store.Options{})
	defer st.Close()
	s := newServer(t, Options{Store: st})
	defer s.Close()
	if h := s.Health(); h.ReplayedTables != 2 || h.Recovery.ManifestVersion != 2 {
		t.Fatalf("replayed %d tables from manifest v%d, want 2 from v2", h.ReplayedTables, h.Recovery.ManifestVersion)
	}
	_, expect := testRelation(1000)
	for _, c := range []struct {
		table string
		hi    int64
		want  int64
	}{{"small", 100, 60}, {"big", 10000, expect(0, 10000)}} {
		resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: c.table, Query: scan.Query{FilterCol: 0, Lo: 0, Hi: c.hi, AggCol: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sum != c.want {
			t.Fatalf("%s scan sum = %d, want %d", c.table, resp.Sum, c.want)
		}
	}
}

// TestCheckpointIntervalPersistsInBackground arms the interval checkpointer
// and watches the store's committed version advance without any explicit
// Checkpoint call.
func TestCheckpointIntervalPersistsInBackground(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{})
	defer st.Close()
	s := newServer(t, Options{Store: st, CheckpointInterval: 2 * time.Millisecond})
	defer s.Close()
	if err := s.Register("bg", [][]int64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	// The store's version advances inside Checkpoint and the server counts
	// the checkpoint after it returns, so wait for both.
	deadline := time.Now().Add(5 * time.Second)
	for st.Version() == 0 || s.Health().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer: store version %d, health checkpoints %d", st.Version(), s.Health().Checkpoints)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointRequiresStore pins the Options validation and the explicit
// Checkpoint call's behaviour on a memory-only server.
func TestCheckpointRequiresStore(t *testing.T) {
	if _, err := New(hw.Laptop(), Options{CheckpointInterval: time.Second}); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("interval without store: %v, want ErrInvalidInput", err)
	}
	s := newServer(t, Options{})
	defer s.Close()
	if _, err := s.Checkpoint(context.Background()); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("checkpoint without store: %v, want ErrInvalidInput", err)
	}
}

// TestCheckpointMemShedUnderTightBudget arms a governor whose budget cannot
// grant what the checkpoint holds of its segment: the checkpoint sheds with
// ErrMemoryPressure instead of blowing the budget, and the counter records
// it.
func TestCheckpointMemShedUnderTightBudget(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{})
	defer st.Close()
	s := newServer(t, Options{Store: st, Memory: mem.Config{BudgetBytes: 8 << 10}})
	defer s.Close()
	cols, _ := testRelation(8000)
	if err := s.Register("wide", cols); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(context.Background()); !errors.Is(err, errs.ErrMemoryPressure) {
		t.Fatalf("tight-budget checkpoint: %v, want ErrMemoryPressure", err)
	}
	if s.Health().CheckpointMemShed == 0 {
		t.Fatal("checkpoint mem-shed not counted")
	}
}

// TestNoGoroutineLeaksAcrossKillRecoverCycles runs several server lifetimes
// against one directory with crash and torn-write injection armed on the
// store, closing and recovering each time, and checks the goroutine count
// settles back: neither the checkpointer nor any recovery path may leak.
func TestNoGoroutineLeaksAcrossKillRecoverCycles(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	cols, expect := testRelation(1000)
	want := expect(0, 10000)

	for cycle := 0; cycle < 5; cycle++ {
		in := fault.New(fault.Config{
			Seed:             int64(1000 + cycle),
			CrashProb:        0.3,
			TornWriteProb:    0.3,
			ChecksumFlipProb: 0.2,
			MaxFaults:        2,
		})
		// Silent-corruption classes (torn writes and checksum flips report
		// success) can poison the only copy of a segment that every retained
		// manifest references; the contract then is a LOUD ErrCorrupted from
		// Open, never wrong data. Model the operator's only remedy — restore
		// from scratch — and keep cycling.
		st, err := store.Open(store.Options{Dir: dir, Machine: hw.Server2S(), Faults: in})
		if errors.Is(err, errs.ErrCorrupted) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			st, err = store.Open(store.Options{Dir: dir, Machine: hw.Server2S(), Faults: in})
		}
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(t, Options{Store: st, CheckpointInterval: time.Millisecond})
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
		// Checkpoints may crash or tear under injection — the loop only cares
		// that every outcome drains cleanly.
		_, _ = s.Checkpoint(context.Background())
		if resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "t", Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 10000, AggCol: 1}}); err != nil {
			t.Fatal(err)
		} else if resp.Sum != want {
			t.Fatalf("cycle %d: sum = %d, want %d", cycle, resp.Sum, want)
		}
		_ = s.Close() // flush may fail under injection; goroutines must still exit
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
