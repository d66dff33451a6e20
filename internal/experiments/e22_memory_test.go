package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"hwstar/internal/hw"
)

// TestE22GovernedBeatsNaive asserts the experiment's headline claim at test
// scale: on the same memory-hostile query sequence, the naive engine is
// OOM-killed by every over-budget table while the governed engine completes
// everything by spilling, with zero kills and a real spill count, and
// completes everything on one submission under allocation faults too.
func TestE22GovernedBeatsNaive(t *testing.T) {
	tables, err := runE22(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}

	// Table 2 rows: naive, governed, governed + alloc faults. Columns:
	// engine, completed, aborted, morsel re-runs, oom kills, spilled, spill
	// KiB, p50, p99.
	rows := tables[1].Rows
	if len(rows) != 3 {
		t.Fatalf("serve rows = %d, want 3", len(rows))
	}
	naive, governed := rows[0], rows[1]
	if naive[4] == "0" {
		t.Fatalf("naive engine never OOM-killed: %v", naive)
	}
	if naive[1] == naive[2] && naive[2] == "0" {
		t.Fatalf("naive row empty: %v", naive)
	}
	if governed[2] != "0" || governed[4] != "0" {
		t.Fatalf("governed engine aborted or was killed: %v", governed)
	}
	if governed[5] == "0" {
		t.Fatalf("governed engine never spilled: %v", governed)
	}
	// An allocation fault re-runs its morsel in the scheduler: every query
	// completes on its one submission, and the faults show as re-runs.
	queries := strconv.Itoa(TestConfig().scaled(120, 24))
	if faulted := rows[2]; faulted[1] != queries+"/"+queries || faulted[3] == "0" {
		t.Fatalf("alloc-fault row: want %s/%s completed with morsel re-runs > 0: %v", queries, queries, faulted)
	}

	// The degradation curve: every budgeted row must complete, and the
	// sub-table budgets must have spilled.
	for i, row := range tables[0].Rows {
		if row[1] != "true" {
			t.Fatalf("curve row %d did not complete: %v", i, row)
		}
		if i > 0 && row[2] != "true" {
			t.Fatalf("curve row %d (budget below table) did not spill: %v", i, row)
		}
	}
}

// TestE22Reproducible runs the full experiment twice: every row of every
// table must be identical — memory chaos is deterministic, not merely
// plausible.
func TestE22Reproducible(t *testing.T) {
	a, err := runE22(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runE22(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Rows, b[i].Rows) {
			t.Fatalf("table %d not reproducible:\n  a=%v\n  b=%v", i, a[i].Rows, b[i].Rows)
		}
	}
}

// TestE22SpillCostIsPriced checks the cost-model side: a spilled plan must
// cost more simulated cycles than the unlimited plan (the spill tier is not
// free), but within a small factor — degradation, not collapse.
func TestE22SpillCostIsPriced(t *testing.T) {
	tbl, err := runE22Curve(TestConfig(), hw.Server2S())
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return f
	}
	base := parse(tbl.Rows[0][5])
	worst := parse(tbl.Rows[len(tbl.Rows)-1][5])
	if worst <= base {
		t.Fatalf("spilled makespan %.2f not above unlimited %.2f: the spill tier priced nothing", worst, base)
	}
	if worst > 10*base {
		t.Fatalf("spilled makespan %.2f more than 10x unlimited %.2f: degradation is not graceful", worst, base)
	}
}
