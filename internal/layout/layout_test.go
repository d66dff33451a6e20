package layout

import (
	"testing"
	"testing/quick"

	"hwstar/internal/cache"
	"hwstar/internal/hw"
	"hwstar/internal/workload"
)

func makeCols(rows, cols int) [][]int64 {
	out := make([][]int64, cols)
	for c := range out {
		col := make([]int64, rows)
		for r := range col {
			col[r] = int64(c*1000000 + r)
		}
		out[c] = col
	}
	return out
}

func TestKindString(t *testing.T) {
	if NSM.String() != "NSM" || DSM.String() != "DSM" || PAX.String() != "PAX" {
		t.Fatal("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(NSM, nil); err == nil {
		t.Fatal("no columns should fail")
	}
	if _, err := Build(NSM, [][]int64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged columns should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on error")
		}
	}()
	MustBuild(DSM, nil)
}

func TestGetAcrossLayouts(t *testing.T) {
	cols := makeCols(1000, 4) // crosses a PAX page boundary at row 512
	for _, k := range []Kind{NSM, DSM, PAX} {
		r := MustBuild(k, cols)
		if r.NumRows() != 1000 || r.NumCols() != 4 {
			t.Fatalf("%s: shape %d×%d", k, r.NumRows(), r.NumCols())
		}
		for _, row := range []int{0, 1, 511, 512, 513, 999} {
			for c := 0; c < 4; c++ {
				if got := r.Get(row, c); got != cols[c][row] {
					t.Fatalf("%s: Get(%d,%d) = %d, want %d", k, row, c, got, cols[c][row])
				}
			}
		}
	}
}

func TestSetRoundTrip(t *testing.T) {
	for _, k := range []Kind{NSM, DSM, PAX} {
		r := MustBuild(k, makeCols(600, 3))
		r.Set(555, 2, -42)
		if got := r.Get(555, 2); got != -42 {
			t.Fatalf("%s: Set/Get = %d", k, got)
		}
		// Neighbours untouched.
		if r.Get(554, 2) != 2*1000000+554 || r.Get(555, 1) != 1*1000000+555 {
			t.Fatalf("%s: Set clobbered a neighbour", k)
		}
	}
}

func TestAddrDistinctAndAligned(t *testing.T) {
	for _, k := range []Kind{NSM, DSM, PAX} {
		r := MustBuild(k, makeCols(700, 3))
		r.SetBase(1 << 20)
		seen := map[uint64]bool{}
		for row := 0; row < 700; row++ {
			for c := 0; c < 3; c++ {
				a := r.Addr(row, c)
				if a%8 != 0 {
					t.Fatalf("%s: unaligned address %d", k, a)
				}
				if seen[a] {
					t.Fatalf("%s: duplicate address for (%d,%d)", k, row, c)
				}
				seen[a] = true
				if a < 1<<20 || a >= 1<<20+uint64(r.Bytes()) {
					t.Fatalf("%s: address %d outside relation", k, a)
				}
			}
		}
	}
}

func TestScanWorkShapes(t *testing.T) {
	line := int64(64)
	nsm := MustBuild(NSM, makeCols(1000, 10))
	dsm := MustBuild(DSM, makeCols(1000, 10))
	one := []int{0}
	// NSM scanning 1 of 10 columns still streams all bytes; DSM streams 10%.
	wn, wd := nsm.ScanWork(one, line), dsm.ScanWork(one, line)
	if wn.SeqReadBytes != 1000*10*8 {
		t.Fatalf("NSM scan bytes = %d", wn.SeqReadBytes)
	}
	if wd.SeqReadBytes != 1000*1*8 {
		t.Fatalf("DSM scan bytes = %d", wd.SeqReadBytes)
	}
	// At full projectivity they converge.
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if nsm.ScanWork(all, line).SeqReadBytes != dsm.ScanWork(all, line).SeqReadBytes {
		t.Fatal("full-projectivity scans should stream equal bytes")
	}
}

func TestPointWorkShapes(t *testing.T) {
	line := int64(64)
	cols := []int{0, 1, 2, 3, 4}
	nsm := MustBuild(NSM, makeCols(1000, 8))
	dsm := MustBuild(DSM, makeCols(1000, 8))
	pax := MustBuild(PAX, makeCols(1000, 8))
	sumReads := func(ws []hw.Work) int64 {
		var t int64
		for _, w := range ws {
			t += w.RandomReads
		}
		return t
	}
	// NSM row = 64 bytes = 1 line; DSM needs 5 distant accesses.
	if got := sumReads(nsm.PointWork(cols, line)); got != 1 {
		t.Fatalf("NSM point reads = %d, want 1", got)
	}
	if got := sumReads(dsm.PointWork(cols, line)); got != 5 {
		t.Fatalf("DSM point reads = %d, want 5", got)
	}
	pw := pax.PointWork(cols, line)
	if len(pw) != 2 || pw[0].RandomReads != 1 || pw[1].RandomReads != 4 {
		t.Fatalf("PAX point work = %+v", pw)
	}
	if pw[1].RandomWS >= pw[0].RandomWS {
		t.Fatal("PAX follow-up accesses should see a smaller working set")
	}
	// Single-column point on PAX has no follow-up item.
	if got := pax.PointWork([]int{0}, line); len(got) != 1 {
		t.Fatalf("PAX single-column point = %+v", got)
	}
}

func TestTracePointLayoutEffect(t *testing.T) {
	const rows = 1 << 15
	colsData := makeCols(rows, 8)
	m := hw.Laptop()
	nsm := MustBuild(NSM, colsData)
	dsm := MustBuild(DSM, colsData)
	dsm.SetBase(1 << 30)

	probe := workload.UniformInts(5, 2000, rows)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	hn, hd := cache.FromMachine(m), cache.FromMachine(m)
	var cn, cd float64
	for _, row := range probe {
		cn += nsm.TracePoint(hn, int(row), all)
		cd += dsm.TracePoint(hd, int(row), all)
	}
	if cd <= cn {
		t.Fatalf("full-row point reads: DSM cycles %f should exceed NSM %f", cd, cn)
	}
}

func TestAdvisorPrefersExpectedLayouts(t *testing.T) {
	m := hw.Server2S()
	// OLAP: many low-projectivity scans → DSM or PAX, never NSM.
	olap := AccessProfile{Scans: 100, ScanCols: []int{0}}
	adv, err := Advise(1_000_000, 16, olap, m)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best == NSM {
		t.Fatalf("OLAP advisor chose NSM: %+v", adv.Costs)
	}
	// OLTP: many full-row point reads → NSM (or PAX), never DSM.
	oltp := AccessProfile{Points: 100000, PointCols: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}
	adv, err = Advise(1_000_000, 16, oltp, m)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best == DSM {
		t.Fatalf("OLTP advisor chose DSM: %+v", adv.Costs)
	}
	if len(adv.Costs) != 3 {
		t.Fatalf("advisor should cost all layouts: %v", adv.Costs)
	}
}

func TestAdvisorMixedWorkloadPAX(t *testing.T) {
	m := hw.Server2S()
	// Mixed OLTP/OLAP is PAX's home turf: scans want columns, points want
	// page locality.
	mixed := AccessProfile{
		Scans: 2000, ScanCols: []int{0, 1},
		Points: 3_000_000, PointCols: []int{0, 1, 2, 3, 4, 5, 6, 7},
	}
	adv, err := Advise(1_000_000, 16, mixed, m)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Costs[PAX] > adv.Costs[NSM] && adv.Costs[PAX] > adv.Costs[DSM] {
		t.Fatalf("PAX should not be strictly worst on mixed workloads: %+v", adv.Costs)
	}
}

func TestAdvisorErrors(t *testing.T) {
	m := hw.Laptop()
	if _, err := Advise(100, 4, AccessProfile{}, m); err == nil {
		t.Fatal("empty profile should fail")
	}
	if _, err := Advise(100, 4, AccessProfile{Scans: 1, ScanCols: []int{9}}, m); err == nil {
		t.Fatal("out-of-range column should fail")
	}
	if _, err := Advise(100, 4, AccessProfile{Scans: 1}, m); err == nil {
		t.Fatal("scans without columns should fail")
	}
	if _, err := Advise(100, 4, AccessProfile{Points: 1}, m); err == nil {
		t.Fatal("points without columns should fail")
	}
	if _, err := Advise(0, 4, AccessProfile{Scans: 1, ScanCols: []int{0}}, m); err == nil {
		t.Fatal("zero rows should fail")
	}
	if _, err := Advise(100, 4, AccessProfile{Scans: -1, Points: 1, PointCols: []int{0}}, m); err == nil {
		t.Fatal("negative scans should fail")
	}
}

// Property: every layout stores and retrieves the same logical relation —
// the (row, col) → index mapping is a bijection.
func TestLayoutBijectionProperty(t *testing.T) {
	f := func(rowsRaw uint16, colsRaw uint8, kindRaw uint8) bool {
		rows := int(rowsRaw)%2000 + 1
		ncols := int(colsRaw)%6 + 1
		kind := Kind(int(kindRaw) % 3)
		r := MustBuild(kind, makeCols(rows, ncols))
		seen := make(map[int]bool, rows*ncols)
		for row := 0; row < rows; row++ {
			for c := 0; c < ncols; c++ {
				idx := r.index(row, c)
				if idx < 0 || idx >= rows*ncols || seen[idx] {
					return false
				}
				seen[idx] = true
				if r.Get(row, c) != int64(c*1000000+row) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
