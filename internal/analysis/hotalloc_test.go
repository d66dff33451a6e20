package analysis_test

import (
	"testing"

	"hwstar/internal/analysis"
	"hwstar/internal/analysis/analysistest"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc", "hwstar/internal/join", analysis.HotAlloc)
}

// TestHotAllocServe: the serving layer joined the scope when the vectorized
// scan moved batch execution into it — span attributes and retry annotations
// in its loops are held to the same no-boxing rule.
func TestHotAllocServe(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc_serve", "hwstar/internal/serve", analysis.HotAlloc)
}

// TestHotAllocSched: the scheduler joined the scope for the Morsels shape — a
// Sprintf per task while building a request's tasks. Its dispatch loop's
// fault paths end in break and are exempt like a return; a break that only
// leaves a switch is not.
func TestHotAllocSched(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc_sched", "hwstar/internal/sched", analysis.HotAlloc)
}

// TestHotAllocV1: the wire encoder joined the scope with AppendResponse — a
// Sprintf per group is what it replaced. The rest of the frontend stays out
// (TestHotAllocScope).
func TestHotAllocV1(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc_v1", "hwstar/internal/frontend/v1", analysis.HotAlloc)
}

// TestHotAllocScope: packages off the query path format error messages and
// trace attributes at will; the boxing rule binds only the hot packages.
func TestHotAllocScope(t *testing.T) {
	if diags := runOn(t, "testdata/hotalloc", "hwstar/internal/frontend", analysis.HotAlloc); len(diags) != 0 {
		t.Fatalf("out-of-scope package produced diagnostics: %v", diags)
	}
}
