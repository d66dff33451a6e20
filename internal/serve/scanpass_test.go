package serve

import (
	"context"
	"strconv"
	"testing"

	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
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

// TestScanPassAllocs: a warm pass allocates its accumulator, its scratch row
// and its state once, plus the schedule's Result — a constant, not one
// slice per morsel. The count is the same for a batch of one and of eight,
// and for a table four times as long.
func TestScanPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const ceiling = 8
	want := -1.0
	for _, rows := range []int{scanPassRows, 4 * scanPassRows} {
		s, vt, sch, filter := scanPassFixture(t, scanShapes[0], rows)
		for _, batch := range []int{1, 8} {
			qs := scanPassBatch(filter, batch)
			got := testing.AllocsPerRun(20, func() {
				if _, _, err := s.vecSharedScan(context.Background(), vt, qs, sch); err != nil {
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
		for _, batch := range []int{1, 8} {
			qs := scanPassBatch(filter, batch)
			b.Run(shape.name+"/batch-"+strconv.Itoa(batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := s.vecSharedScan(context.Background(), vt, qs, sch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		s.Close()
	}
}
