package serve

import (
	"context"
	"math"
	"strconv"
	"sync/atomic"
	"testing"

	"hwstar/internal/compress"
	"hwstar/internal/fault"
	"hwstar/internal/scan"
	"hwstar/internal/store"
	"hwstar/internal/workload"
)

// scanShape generates a three-column relation of the given row count.
type scanShape struct {
	name string
	gen  func(rows int) [][]int64
}

var scanShapes = []scanShape{
	// Append-ordered filter column: zone maps prune or fast-sum most blocks.
	{"clustered", func(rows int) [][]int64 {
		c0 := workload.SequentialInts(rows)
		for i, j := range workload.UniformInts(81, rows, 3) {
			c0[i] = c0[i]*3 + j
		}
		return [][]int64{c0, workload.UniformInts(82, rows, 500), workload.UniformInts(83, rows, 9)}
	}},
	// Uniform filter column: no block prunes, every straddled block decodes.
	{"uniform", func(rows int) [][]int64 {
		return [][]int64{workload.UniformInts(84, rows, 10000), workload.UniformInts(85, rows, 500), workload.UniformInts(86, rows, 1<<40)}
	}},
	// One value per column: every block is a single RLE run.
	{"constant", func(rows int) [][]int64 {
		cols := [][]int64{make([]int64, rows), make([]int64, rows), make([]int64, rows)}
		for i := 0; i < rows; i++ {
			cols[0][i], cols[1][i], cols[2][i] = 7, -3, 1<<50
		}
		return cols
	}},
	// Values on both sides of zero in filter and aggregate columns.
	{"negative", func(rows int) [][]int64 {
		cols := [][]int64{workload.UniformInts(87, rows, 10000), workload.UniformInts(88, rows, 500), workload.UniformInts(89, rows, 64)}
		for i := 0; i < rows; i++ {
			cols[0][i] -= 5000
			cols[1][i] -= 250
			cols[2][i] = -cols[2][i]
		}
		return cols
	}},
}

// scanCases builds the query batch for one relation from its filter
// column's domain: full and empty matches, single values, narrow and wide
// straddling ranges, filter column = aggregate column, and filters on the
// other columns.
func scanCases(cols [][]int64) []scan.Query {
	min, max := cols[0][0], cols[0][0]
	for _, v := range cols[0] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	mid := cols[0][len(cols[0])/2]
	span := (max-min)/16 + 1
	qs := []scan.Query{
		{FilterCol: 0, Lo: min, Hi: max, AggCol: 1},                     // full match, exact bounds
		{FilterCol: 0, Lo: math.MinInt64, Hi: math.MaxInt64, AggCol: 2}, // full match, widest range
		{FilterCol: 0, Lo: max + 1, Hi: max + 100, AggCol: 1},           // empty, above the domain
		{FilterCol: 0, Lo: min - 100, Hi: min - 1, AggCol: 1},           // empty, below the domain
		{FilterCol: 0, Lo: mid, Hi: mid, AggCol: 1},                     // one value
		{FilterCol: 0, Lo: min, Hi: mid, AggCol: 0},                     // filter col = agg col
		{FilterCol: 0, Lo: mid, Hi: max, AggCol: 2},
		{FilterCol: 1, Lo: -100, Hi: 100, AggCol: 2}, // other filter columns share the pass
		{FilterCol: 2, Lo: 0, Hi: 4, AggCol: 0},
		{FilterCol: 1, Lo: cols[1][0], Hi: cols[1][0], AggCol: 1},
	}
	for i := int64(0); i < 16; i += 3 {
		qs = append(qs, scan.Query{FilterCol: 0, Lo: min + i*span, Hi: min + (i+2)*span, AggCol: 1})
	}
	return qs
}

// TestScanMatchesSharedReference is the scan path's correctness check: one
// concurrent batch per generated relation, answered by the server's
// block-major compressed pass, must equal scan.Shared — the row-at-a-time
// reference — query by query. Row counts sit on and around the block
// (1024) and morsel (8192) boundaries. The batch runs three times: on the
// server that encoded the relation, on a server restarted from its store,
// which serves the blocks it read from the segment without re-encoding them,
// and on a server under E20's fault mix, where morsels re-run after panics
// and transients and must still fold each row once.
func TestScanMatchesSharedReference(t *testing.T) {
	rowCounts := []int{1, compress.BlockValues - 1, compress.BlockValues, compress.BlockValues + 1,
		vecMorselRows + 3*compress.BlockValues + 17, 3 * vecMorselRows}
	// The fault phase must not pass vacuously: across all relations the mix
	// has to have fired both an isolated panic and a retried transient.
	var panics, transients atomic.Int64
	t.Cleanup(func() {
		if panics.Load() == 0 || transients.Load() == 0 {
			t.Errorf("the fault mix injected %d panics and %d transients, want some of each", panics.Load(), transients.Load())
		}
	})
	for _, shape := range scanShapes {
		for _, rows := range rowCounts {
			shape, rows := shape, rows
			t.Run(shape.name+"/"+strconv.Itoa(rows), func(t *testing.T) {
				t.Parallel()
				cols := shape.gen(rows)
				qs := scanCases(cols)
				rel, err := scan.NewRelation(cols)
				if err != nil {
					t.Fatal(err)
				}
				want, err := scan.Shared(rel, qs, scan.SharedOptions{}, nil)
				if err != nil {
					t.Fatal(err)
				}

				opts := Options{QueueDepth: len(qs), MaxBatch: len(qs)}
				dir := t.TempDir()
				opts.Store = openStore(t, dir, store.Options{})
				s := newServer(t, opts)
				if err := s.Register("t", cols); err != nil {
					t.Fatal(err)
				}
				checkSharedBatch(t, s, qs, want)
				if _, err := s.Checkpoint(context.Background()); err != nil {
					t.Fatal(err)
				}
				s.Close()
				opts.Store.Close()

				opts.Store = openStore(t, dir, store.Options{})
				defer opts.Store.Close()
				s = newServer(t, opts)
				defer s.Close()
				if got := s.Health().ReplayedTables; got != 1 {
					t.Fatalf("restart replayed %d tables, want 1", got)
				}
				checkSharedBatch(t, s, qs, want)

				fs := newServer(t, e20Resilient(int64(rows), len(qs)))
				defer fs.Close()
				if err := fs.Register("t", cols); err != nil {
					t.Fatal(err)
				}
				checkSharedBatch(t, fs, qs, want)
				h := fs.Health()
				panics.Add(h.Faults["panic"])
				transients.Add(h.Faults["transient"])
			})
		}
	}
}

// e20Resilient is E20's resilient server (a faulted server isolates panics,
// retires stragglers and re-runs transient morsels; block claiming over
// eight workers) sized for a batch of batch scans, with E20's fault classes
// — its straggler rate, but forty and ten times its panic and transient
// rates, so that a pass of one to three morsels meets them.
func e20Resilient(seed int64, batch int) Options {
	return Options{
		QueueDepth:     batch,
		MaxBatch:       batch,
		Workers:        8,
		SchedBlockSize: 8,
		Faults: fault.New(fault.Config{
			Seed:          seed,
			PanicProb:     0.2,
			TransientProb: 0.05,
			StragglerProb: 0.10,
			StragglerSkew: 8,
		}),
	}
}

// checkSharedBatch submits qs against table "t" of s as one cohort — one
// shared pass — and compares each sum with want.
func checkSharedBatch(t *testing.T, s *Server, qs []scan.Query, want []int64) {
	t.Helper()
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Op: OpScan, Table: "t", Query: q}
	}
	for i, r := range cohort(t, s, reqs) {
		if r.Sum != want[i] {
			t.Errorf("query %d %+v: sum %d, scan.Shared says %d", i, qs[i], r.Sum, want[i])
		}
		if r.BatchSize != len(qs) {
			t.Errorf("query %d: batch size %d, want %d", i, r.BatchSize, len(qs))
		}
	}
	h := s.Health()
	if h.VecPasses != 1 {
		t.Errorf("passes %d, want 1", h.VecPasses)
	}
	if h.VecBlocksPruned+h.VecFastSums+h.VecBlocksScanned == 0 {
		t.Error("no block outcomes recorded")
	}
}

// TestVecScanZeroMatchQueries covers the satellite-1 bug class end to end: a
// batch where some queries select no rows must return zero sums, not values
// leaked from an "all rows" misreading of an empty selection.
func TestVecScanZeroMatchQueries(t *testing.T) {
	cols, _ := testRelation(10000)
	s := newServer(t, Options{QueueDepth: 8, MaxBatch: 4})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = scanOf("events", 50000, 60000) // above the value domain: no rows
		if i%2 == 0 {
			reqs[i] = scanOf("events", 0, 20000) // all rows
		}
	}
	resps := cohort(t, s, reqs)
	var all int64
	for _, v := range cols[1] {
		all += v
	}
	for i, r := range resps {
		want := all
		if i%2 != 0 {
			want = 0
		}
		if r.Sum != want {
			t.Fatalf("client %d: sum %d, want %d", i, r.Sum, want)
		}
	}
}

// TestVecRegisterReplace re-registers a table with different data while the
// server is live: scans must see the new encoding, never sums from the
// stale one.
func TestVecRegisterReplace(t *testing.T) {
	s := newServer(t, Options{QueueDepth: 4, MaxBatch: 1})
	defer s.Close()
	first := [][]int64{{1, 2, 3, 4}, {10, 20, 30, 40}}
	if err := s.Register("t", first); err != nil {
		t.Fatal(err)
	}
	second := [][]int64{{1, 2, 3, 4, 5}, {100, 200, 300, 400, 500}}
	if err := s.Register("t", second); err != nil {
		t.Fatal(err)
	}
	r, err := s.Submit(context.Background(), Request{
		Op:    OpScan,
		Table: "t",
		Query: scan.Query{FilterCol: 0, Lo: 2, Hi: 4, AggCol: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sum != 900 {
		t.Fatalf("sum %d, want 900 (stale encoding?)", r.Sum)
	}
}
