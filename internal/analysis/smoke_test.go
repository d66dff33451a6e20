package analysis_test

import (
	"testing"

	"hwstar/internal/analysis"
)

// TestEachAnalyzerFiresOnItsTestdata is the negative smoke: every analyzer
// in the registry must produce at least one diagnostic on its own testdata
// package. A lint gate fails open silently — an analyzer whose scope list
// rotted, whose registration was dropped, or whose detection logic broke
// reports nothing, and a clean CI run looks exactly like a working one.
// This test makes "reports nothing" a failure.
func TestEachAnalyzerFiresOnItsTestdata(t *testing.T) {
	// dir and judged-as import path per analyzer; the path puts the
	// testdata inside the analyzer's scope.
	suites := map[string]struct{ dir, asPath string }{
		"ctxfirst":       {"testdata/ctxfirst", "hwstar/internal/serve"},
		"seededrand":     {"testdata/seededrand", "hwstar/internal/sched"},
		"senterr":        {"testdata/senterr", "hwstar/internal/serve"},
		"pairedresource": {"testdata/pairedresource", "hwstar/internal/serve"},
		"hotalloc":       {"testdata/hotalloc", "hwstar/internal/join"},
		"goroleak":       {"testdata/goroleak", "hwstar/internal/shard"},
		"lockorder":      {"testdata/lockorder", "hwstar/internal/serve"},
		"atomiconly":     {"testdata/atomiconly", "hwstar/internal/vecexec"},
		"commitproto":    {"testdata/commitproto", "hwstar/internal/store"},
	}
	for _, a := range analysis.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			s, ok := suites[a.Name]
			if !ok {
				t.Fatalf("analyzer %s has no testdata suite registered in this smoke test", a.Name)
			}
			diags := runOn(t, s.dir, s.asPath, a)
			if len(diags) == 0 {
				t.Fatalf("analyzer %s produced no diagnostics on %s: the check is silently disabled", a.Name, s.dir)
			}
			for _, d := range diags {
				if d.Analyzer != a.Name {
					t.Fatalf("diagnostic attributed to %q, want %q", d.Analyzer, a.Name)
				}
			}
		})
	}
}
