package experiments

import "testing"

// TestE21Decomposes runs the observability experiment at test scale and
// asserts its structural claims: every traced request's stage walls sum to
// no more than its total, execution carries simulated cycles, and the chaos
// mix actually re-ran a morsel somewhere in the run, visible in a trace.
func TestE21Decomposes(t *testing.T) {
	bds, h, err := e21Run(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(bds) == 0 {
		t.Fatal("no traces captured")
	}
	for i, b := range bds {
		if b.total <= 0 {
			t.Fatalf("trace %d: empty total wall: %+v", i, b)
		}
		if parts := b.queue + b.batch + b.execute; parts > b.total*1.001 {
			t.Fatalf("trace %d: stage walls %.3fms exceed total %.3fms", i, parts, b.total)
		}
		if b.execMcyc <= 0 {
			t.Fatalf("trace %d: no simulated cycles attributed to execution: %+v", i, b)
		}
	}
	if h.Completed == 0 {
		t.Fatalf("no requests completed: %+v", h)
	}
	// Deterministic fault draws at a fixed seed: the transient mix must have
	// re-run a morsel, and a trace must show it on its execute span.
	if h.Retries == 0 {
		t.Fatalf("chaos mix produced no morsel re-runs: %+v", h)
	}
	retried := false
	for _, b := range bds {
		retried = retried || b.retried
	}
	if !retried {
		t.Fatal("morsel re-runs counted but no trace carries one")
	}
}

// TestE21Tables checks the experiment renders its two tables.
func TestE21Tables(t *testing.T) {
	tables, err := runE21(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
}
