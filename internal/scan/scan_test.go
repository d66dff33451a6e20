package scan

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
	"hwstar/internal/sched"
	"hwstar/internal/workload"
)

func testRelation(t *testing.T, rows int) *Relation {
	t.Helper()
	r, err := NewRelation([][]int64{
		workload.UniformInts(1, rows, 10000), // col 0: filter domain
		workload.UniformInts(2, rows, 100),   // col 1: agg values
		workload.SequentialInts(rows),        // col 2
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testQueries(n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		lo := int64(i * 37 % 9000)
		qs[i] = Query{FilterCol: 0, Lo: lo, Hi: lo + 500, AggCol: 1}
	}
	return qs
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation(nil); err == nil {
		t.Fatal("empty relation should fail")
	}
	if _, err := NewRelation([][]int64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged columns should fail")
	}
	r, err := NewRelation([][]int64{{1, 2, 3}})
	if err != nil || r.NumRows() != 3 || r.NumCols() != 1 {
		t.Fatalf("relation: %v %v", r, err)
	}
}

func TestQueryValidate(t *testing.T) {
	if err := (Query{FilterCol: 0, Lo: 0, Hi: 1, AggCol: 0}).Validate(1); err != nil {
		t.Fatal(err)
	}
	bad := []Query{
		{FilterCol: -1, Hi: 1},
		{FilterCol: 3, Hi: 1},
		{AggCol: 3, Hi: 1},
		{Lo: 5, Hi: 2},
	}
	for i, q := range bad {
		if err := q.Validate(2); err == nil {
			t.Fatalf("query %d should be invalid", i)
		}
	}
}

func TestSharedMatchesQueryAtATime(t *testing.T) {
	r := testRelation(t, 20000)
	qs := testQueries(50)
	want, err := QueryAtATime(r, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, indexed := range []bool{false, true} {
		got, err := Shared(r, qs, SharedOptions{UseQueryIndex: indexed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("indexed=%v: shared scan disagrees with baseline", indexed)
		}
	}
}

func TestSharedMixedFilterColumns(t *testing.T) {
	// Queries on different filter columns cannot use the index but must
	// still be correct.
	r := testRelation(t, 5000)
	qs := []Query{
		{FilterCol: 0, Lo: 0, Hi: 5000, AggCol: 1},
		{FilterCol: 2, Lo: 100, Hi: 200, AggCol: 1},
	}
	want, _ := QueryAtATime(r, qs, nil)
	got, err := Shared(r, qs, SharedOptions{UseQueryIndex: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed-filter shared scan disagrees")
	}
}

func TestSharedEmptyQueryBatch(t *testing.T) {
	r := testRelation(t, 100)
	got, err := Shared(r, nil, SharedOptions{}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

func TestValidationErrorsPropagate(t *testing.T) {
	r := testRelation(t, 100)
	bad := []Query{{FilterCol: 9, Hi: 1}}
	if _, err := QueryAtATime(r, bad, nil); err == nil {
		t.Fatal("QueryAtATime should reject bad query")
	}
	if _, err := Shared(r, bad, SharedOptions{}, nil); err == nil {
		t.Fatal("Shared should reject bad query")
	}
	m := hw.Laptop()
	s, _ := sched.New(m, sched.Options{Workers: 2})
	if _, _, err := ParallelShared(context.Background(), r, bad, SharedOptions{}, s, 0); err == nil {
		t.Fatal("ParallelShared should reject bad query")
	}
}

func TestSharedSavesBandwidth(t *testing.T) {
	m := hw.Server2S()
	r := testRelation(t, 1<<17)
	qs := testQueries(64)

	qat := hw.NewAccount(m, hw.DefaultContext())
	if _, err := QueryAtATime(r, qs, qat); err != nil {
		t.Fatal(err)
	}
	shared := hw.NewAccount(m, hw.DefaultContext())
	if _, err := Shared(r, qs, SharedOptions{UseQueryIndex: true}, shared); err != nil {
		t.Fatal(err)
	}
	if shared.TotalCycles() >= qat.TotalCycles() {
		t.Fatalf("shared scan %.0f should beat 64× query-at-a-time %.0f",
			shared.TotalCycles(), qat.TotalCycles())
	}
	// The shared scan must stream the data roughly once, not 64 times.
	if sb, qb := shared.Breakdown().Streaming, qat.Breakdown().Streaming; sb*10 > qb {
		t.Fatalf("shared streaming %.0f should be ~64× below baseline %.0f", sb, qb)
	}
}

func TestQueryIndexReducesCompute(t *testing.T) {
	m := hw.Server2S()
	r := testRelation(t, 1<<16)
	qs := testQueries(512)
	naive := hw.NewAccount(m, hw.DefaultContext())
	if _, err := Shared(r, qs, SharedOptions{}, naive); err != nil {
		t.Fatal(err)
	}
	indexed := hw.NewAccount(m, hw.DefaultContext())
	if _, err := Shared(r, qs, SharedOptions{UseQueryIndex: true}, indexed); err != nil {
		t.Fatal(err)
	}
	if indexed.Breakdown().Compute >= naive.Breakdown().Compute {
		t.Fatalf("query index compute %.0f should beat naive %.0f",
			indexed.Breakdown().Compute, naive.Breakdown().Compute)
	}
}

func TestParallelSharedMatchesSerial(t *testing.T) {
	r := testRelation(t, 50000)
	qs := testQueries(32)
	want, _ := QueryAtATime(r, qs, nil)
	m := hw.Server2S()
	s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	got, schedRes, err := ParallelShared(context.Background(), r, qs, SharedOptions{UseQueryIndex: true}, s, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel shared scan disagrees")
	}
	if schedRes.TasksRun != (50000+4095)/4096 {
		t.Fatalf("tasks = %d", schedRes.TasksRun)
	}
	if schedRes.TotalCycles <= schedRes.MakespanCycles {
		t.Fatalf("no parallel speedup: total %f <= makespan %f", schedRes.TotalCycles, schedRes.MakespanCycles)
	}
}

func TestParallelSharedDefaultSegment(t *testing.T) {
	r := testRelation(t, 1000)
	qs := testQueries(4)
	m := hw.Laptop()
	s, _ := sched.New(m, sched.Options{Workers: 2})
	got, _, err := ParallelShared(context.Background(), r, qs, SharedOptions{}, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := QueryAtATime(r, qs, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("default segment size result wrong")
	}
}

func TestDomain(t *testing.T) {
	lo, hi := domain([]int64{5, -3, 9, 0})
	if lo != -3 || hi != 9 {
		t.Fatalf("domain = %d, %d", lo, hi)
	}
	lo, hi = domain(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty domain should be 0,0")
	}
}

func TestQueryIndexCandidatesComplete(t *testing.T) {
	// Every query must appear among candidates for every value inside its
	// range (no false negatives; false positives are fine).
	qs := testQueries(200)
	qi := buildQueryIndex(qs, 0, 10000)
	for _, v := range []int64{0, 1, 499, 500, 5000, 9999, 10000} {
		cands := map[int32]bool{}
		for _, id := range qi.candidates(v) {
			cands[id] = true
		}
		for id, q := range qs {
			if v >= q.Lo && v <= q.Hi && !cands[int32(id)] {
				t.Fatalf("query %d missing from candidates of value %d", id, v)
			}
		}
	}
}

// Property: shared (indexed and naive) and parallel scans agree with the
// query-at-a-time baseline for random data and queries.
func TestScanEquivalenceProperty(t *testing.T) {
	m := hw.Laptop()
	f := func(seed int64, nq uint8) bool {
		rows := 2000
		r, err := NewRelation([][]int64{
			workload.UniformInts(seed, rows, 1000),
			workload.UniformInts(seed+1, rows, 50),
		})
		if err != nil {
			return false
		}
		qs := make([]Query, int(nq)%20+1)
		los := workload.UniformInts(seed+2, len(qs), 900)
		spans := workload.UniformInts(seed+3, len(qs), 200)
		for i := range qs {
			qs[i] = Query{FilterCol: 0, Lo: los[i], Hi: los[i] + spans[i], AggCol: 1}
		}
		want, err := QueryAtATime(r, qs, nil)
		if err != nil {
			return false
		}
		for _, indexed := range []bool{false, true} {
			got, err := Shared(r, qs, SharedOptions{UseQueryIndex: indexed}, nil)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		s, err := sched.New(m, sched.Options{Workers: 3, Stealing: true})
		if err != nil {
			return false
		}
		got, _, err := ParallelShared(context.Background(), r, qs, SharedOptions{UseQueryIndex: true}, s, 333)
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
