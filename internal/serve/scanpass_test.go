package serve

import (
	"context"
	"strconv"
	"testing"

	"hwstar/internal/compress"
	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
	"hwstar/internal/vecexec"
)

// scanPassRows is one benchmark stripe: 350 K rows, 43 morsels.
const scanPassRows = 350_000

// scanPassFixture registers shape's relation of the given rows on a fresh
// server and returns the server, the table as the pass sees it, a
// scheduler like runBatch's, and the relation's filter column.
func scanPassFixture(tb testing.TB, shape scanShape, rows int) (*Server, *vecTable, *sched.Scheduler, []int64) {
	tb.Helper()
	cols := shape.gen(rows)
	s, err := New(hw.Server2S(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Register("t", cols); err != nil {
		tb.Fatal(err)
	}
	s.mu.Lock()
	vt := s.tables["t"]
	s.mu.Unlock()
	sch, err := s.newSched(s.opts.Workers, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s, vt, sch, cols[0]
}

// scanPassBatch is n range queries, each two sixteenths of the filter
// column's domain wide, at staggered offsets: on a clustered column most
// blocks prune, a few fast-sum and the edges decode; on a uniform one every
// block decodes.
func scanPassBatch(filter []int64, n int) []scan.Query {
	lo, hi := filter[0], filter[0]
	for _, v := range filter {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := (hi-lo)/16 + 1
	qs := make([]scan.Query, n)
	for i := range qs {
		from := lo + int64(i)*span
		qs[i] = scan.Query{FilterCol: 0, Lo: from, Hi: from + 2*span, AggCol: 1}
	}
	return qs
}

// TestScanPassAllocs: a warm pass on a reused vecPass, as a pooled batch
// runs it, allocates no accumulator, scratch row or state, and its schedule
// allocates nothing: what is left is the morsel body bound to the pass, one
// object, not one per morsel. The count is the same for a batch of one and
// of eight, and for a table four times as long.
func TestScanPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const ceiling = 1
	want := -1.0
	var pass vecPass
	for _, rows := range []int{scanPassRows, 4 * scanPassRows} {
		s, vt, sch, filter := scanPassFixture(t, scanShapes[0], rows)
		for _, batch := range []int{1, 8} {
			qs := scanPassBatch(filter, batch)
			got := testing.AllocsPerRun(20, func() {
				if _, _, err := s.vecSharedScan(context.Background(), &pass, vt, qs, sch); err != nil {
					t.Fatal(err)
				}
			})
			if got > ceiling {
				t.Errorf("%d rows, batch %d: a pass made %.0f allocations, want at most %d", rows, batch, got, ceiling)
			}
			if want < 0 {
				want = got
			} else if got != want {
				t.Errorf("%d rows, batch %d: a pass made %.0f allocations, %.0f at %d rows and batch 1", rows, batch, got, want, scanPassRows)
			}
		}
		s.Close()
	}
}

// BenchmarkScanPass is the block decode/filter layer: one shared pass —
// zone maps, fast sums, decode, filter, gather and the schedule of its 43
// morsels — over a 350 K-row stripe, for a clustered filter column (most
// blocks resolved by the zone map) and a uniform one (every block decoded),
// at a batch of one query and of eight.
func BenchmarkScanPass(b *testing.B) {
	for _, shape := range scanShapes[:2] {
		s, vt, sch, filter := scanPassFixture(b, shape, scanPassRows)
		var pass vecPass
		for _, batch := range []int{1, 8} {
			qs := scanPassBatch(filter, batch)
			b.Run(shape.name+"/batch-"+strconv.Itoa(batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := s.vecSharedScan(context.Background(), &pass, vt, qs, sch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		s.Close()
	}
}

// blockOutcome is one block's fate under one query: the zone map pruned it,
// answered it from the header, or its payload was read; and the sum it
// contributed.
type blockOutcome struct {
	pruned, fastSum, scanned bool
	sum                      int64
}

// TestProbeKernelMatchesScanPass: the block kernel's one-query wrappers,
// vecexec.RangeFilterCompressed and SumCompressed called as the benchmark's
// probe calls them, reach the same outcome on every block and range as the
// server's scan pass run on that block alone — pruned, fast-summed from the
// header or scanned — and the same sum. A wrapper that reads the payload of
// a full match, or classifies a block by another zone-map rule, fails it.
func TestProbeKernelMatchesScanPass(t *testing.T) {
	const rows = 3*vecMorselRows + 17 // a short final block
	for _, shape := range scanShapes {
		s, vt, sch, _ := scanPassFixture(t, shape, rows)
		pass := make([]blockOutcome, vt.cols[0].NumBlocks())
		var buf [compress.BlockValues]int64
		sel := make(vecexec.Sel, 0, compress.BlockValues)
		for _, q := range scanCases(shape.gen(rows)) {
			qs := []scan.Query{q}
			_, err := sch.RunMorsels(context.Background(), vt.rows, compress.BlockValues, compress.BlockValues, "probe-parity",
				func(start, end int, w *sched.Worker) {
					var out [1]int64
					p, f, sc := vecScanMorsel(vt, qs, start, end, w, out[:])
					pass[start/compress.BlockValues] = blockOutcome{p == 1, f == 1, sc == 1, out[0]}
				})
			if err != nil {
				t.Fatal(err)
			}
			fcol, acol := vt.cols[q.FilterCol], vt.cols[q.AggCol]
			for blk := range pass {
				var all, scanned, sumScanned bool
				var sum int64
				sel, all, scanned = vecexec.RangeFilterCompressed(fcol, blk, q.Lo, q.Hi, buf[:], sel[:0])
				switch {
				case all:
					sum, sumScanned = vecexec.SumCompressed(acol, blk, nil, buf[:])
				case len(sel) > 0:
					sum, sumScanned = vecexec.SumCompressed(acol, blk, sel, buf[:])
				}
				got := blockOutcome{!all && !scanned, all && !sumScanned, scanned || sumScanned, sum}
				if got != pass[blk] {
					t.Fatalf("%s block %d, query %+v: wrappers %+v, scan pass %+v", shape.name, blk, q, got, pass[blk])
				}
			}
		}
		s.Close()
	}
}

// TestAggregatingTheFilterColumnDecodesOnce: a query that aggregates its own
// filter column reads each straddled block's payload once, so over one
// uniform morsel it models fewer cycles than the same filter aggregating
// another column, which must decode a second column as well.
func TestAggregatingTheFilterColumnDecodesOnce(t *testing.T) {
	s, vt, sch, _ := scanPassFixture(t, scanShapes[1], vecMorselRows)
	defer s.Close()
	nBlocks := int64(vt.cols[0].NumBlocks())
	cycles := func(aggCol int) float64 {
		qs := []scan.Query{{FilterCol: 0, Lo: 2500, Hi: 7500, AggCol: aggCol}}
		res, err := sch.RunMorsels(context.Background(), vt.rows, vecMorselRows, compress.BlockValues, "filter-is-agg",
			func(start, end int, w *sched.Worker) {
				var out [1]int64
				if p, f, sc := vecScanMorsel(vt, qs, start, end, w, out[:]); p != 0 || f != 0 || sc != nBlocks {
					t.Errorf("agg col %d: %d pruned, %d fast-summed, %d scanned; want every one of %d blocks scanned", aggCol, p, f, sc, nBlocks)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanCycles
	}
	if same, other := cycles(0), cycles(1); same >= other {
		t.Fatalf("filter col = agg col modeled %.0f cycles, filter col != agg col %.0f: the filter column was decoded twice", same, other)
	}
}
