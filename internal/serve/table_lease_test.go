package serve

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hwstar/internal/compress"
	"hwstar/internal/scan"
	"hwstar/internal/store"
)

// leasedVersion is version k of a 64-block, two-column table whose encoded
// payload is the same size for every k, so each version's slabs fit the
// next's class exactly: a slab recycled too early is written over. It
// returns the columns and the sum of column 1.
func leasedVersion(k int64) ([][]int64, int64) {
	const rows = 64 * compress.BlockValues
	filter, agg := make([]int64, rows), make([]int64, rows)
	var sum int64
	for i := range filter {
		filter[i] = int64(i) + k
		agg[i] = (int64(i)*31 + k*17) % 1000
		sum += agg[i]
	}
	return [][]int64{filter, agg}, sum
}

// everything is a scan of leasedVersion's whole table: its sum is column 1's.
var everything = scan.Query{FilterCol: 0, Lo: 0, Hi: 1 << 20, AggCol: 1}

// TestRetiredTableOutlivesHeldPass pins the lease rule of a scan: the batch
// holds the reference its lookup took, so a table replaced under a running
// pass is not recycled. The pass is held, the table re-registered twice —
// the second encode would take the first version's slabs if they were back
// in the pool — and the held columns must still be the first version's
// while held, and the pass's answer its sum once let go.
func TestRetiredTableOutlivesHeldPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	s := newServer(t, Options{})
	defer s.Close()
	v1, sum1 := leasedVersion(1)
	if err := s.Register("t", v1); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	s.testHold = hold
	letGo := sync.OnceFunc(func() { close(hold) })
	defer letGo()
	type answer struct {
		resp Response
		err  error
	}
	ans := make(chan answer, 1)
	go func() {
		resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "t", Query: everything})
		ans <- answer{resp, err}
	}()
	waitFor(t, func() bool { return s.coresFree.Value() < int64(s.Workers()) }, "the scan pass never took its cores")
	s.mu.RLock()
	held := s.tables["t"]
	s.mu.RUnlock()

	for k := int64(2); k <= 3; k++ {
		cols, _ := leasedVersion(k)
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range held.cols {
		if !slices.Equal(c.Decode(), v1[i]) {
			t.Fatalf("column %d of the held table was written over by a later Register", i)
		}
	}
	letGo()
	if a := <-ans; a.err != nil || a.resp.Sum != sum1 {
		t.Fatalf("held pass answered %d, %v; want version 1's sum %d", a.resp.Sum, a.err, sum1)
	}
	_, sum3 := leasedVersion(3)
	if resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "t", Query: everything}); err != nil || resp.Sum != sum3 {
		t.Fatalf("scan after the re-Registers answered %d, %v; want version 3's sum %d", resp.Sum, err, sum3)
	}
}

// TestRetiredTableKeepsItsHeaders pins the lease rule for block headers,
// which a Register encode takes from the table's lease with its payload: a
// reader holding the table (a lookup's reference) while it is re-registered
// twice, the second encode taking the first version's header words if they
// were back in the pool, still reads its own zone maps and block sums
// through Match, BlockRange and BlockSum.
func TestRetiredTableKeepsItsHeaders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	s := newServer(t, Options{})
	defer s.Close()
	v1, _ := leasedVersion(1)
	if err := s.Register("t", v1); err != nil {
		t.Fatal(err)
	}
	held, ok := s.lookup("t")
	if !ok {
		t.Fatal("lookup missed the registered table")
	}
	for k := int64(2); k <= 3; k++ {
		cols, _ := leasedVersion(k)
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range held.cols {
		want := compress.Encode(v1[i])
		for blk := range want.NumBlocks() {
			lo, hi := want.BlockRange(blk)
			gotLo, gotHi := c.BlockRange(blk)
			if gotLo != lo || gotHi != hi || c.BlockSum(blk) != want.BlockSum(blk) || c.Match(blk, lo, hi) != compress.MatchAll {
				t.Fatalf("column %d block %d of the held table reads zone [%d, %d], sum %d, match %d; version 1 has [%d, %d], sum %d: a later Register wrote over its headers",
					i, blk, gotLo, gotHi, c.BlockSum(blk), c.Match(blk, lo, hi), lo, hi, want.BlockSum(blk))
			}
		}
	}
	held.lease.Release()
}

// TestLoadPinsLeasedTable: Store.Load has no release, so a leased table it
// hands out must never be recycled. Two more Registers retire it — the
// second encoding into its slabs if they were back in the pool — and it must
// still decode to the version that was loaded.
func TestLoadPinsLeasedTable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	s, st := durableServer(t, t.TempDir())
	defer st.Close()
	defer s.Close()
	v1, _ := leasedVersion(1)
	if err := s.Register("t", v1); err != nil {
		t.Fatal(err)
	}
	loaded, err := st.Load(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(2); k <= 3; k++ {
		cols, _ := leasedVersion(k)
		if err := s.Register("t", cols); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := store.ColsFromTable(loaded)
	if !ok {
		t.Fatal("the loaded table is not a block-stream table")
	}
	for i := range v1 {
		if !slices.Equal(got[i], v1[i]) {
			t.Fatalf("column %d of the loaded table was written over by a later Register", i)
		}
	}
}

// TestChurnAnswersMatchAVersion is the lease rule under contention: scans
// from several clients race a writer that re-registers and checkpoints the
// table back to back, so lookups, batch releases, swaps and checkpoint jobs
// interleave freely. Every answer must be the sum of one whole version; a
// slab recycled under a pass shows as any other number (and, under -race,
// as a race between the pass and the next encode).
func TestChurnAnswersMatchAVersion(t *testing.T) {
	const cycles = 40
	s, st := durableServer(t, t.TempDir())
	defer st.Close()
	defer s.Close()
	var versions [2][][]int64
	var sums [2]int64
	for k := range versions {
		versions[k], sums[k] = leasedVersion(int64(k + 1))
	}
	if err := s.Register("t", versions[0]); err != nil {
		t.Fatal(err)
	}
	var werr error // the writer's; read after done
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= cycles && werr == nil; i++ {
			if werr = s.Register("t", versions[i%2]); werr == nil {
				_, werr = s.Checkpoint(context.Background())
			}
		}
	}()
	var wg sync.WaitGroup
	var scans atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "t", Query: everything})
				if err != nil {
					t.Error(err)
					return
				}
				scans.Add(1)
				if resp.Sum != sums[0] && resp.Sum != sums[1] {
					t.Errorf("scan answered %d, neither version's sum (%d, %d)", resp.Sum, sums[0], sums[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if werr != nil {
		t.Fatal(werr)
	}
	if scans.Load() == 0 {
		t.Fatal("no scan ran while the writer churned")
	}
}
