package analysis

// All returns every hwlint analyzer in stable order. cmd/hwlint runs them
// all by default; -checks selects a subset by name.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFirst,
		SeededRand,
		SentErr,
		PairedResource,
		HotAlloc,
		GoroLeak,
		LockOrder,
		AtomicOnly,
		CommitProto,
	}
}

// ByName resolves analyzer names, preserving All()'s order and rejecting
// unknown names so a typo in CI fails loudly instead of silently checking
// nothing.
func ByName(names []string) ([]*Analyzer, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		return nil, &UnknownAnalyzerError{Name: n}
	}
	return out, nil
}

// UnknownAnalyzerError reports a -checks name that matches no analyzer.
type UnknownAnalyzerError struct{ Name string }

func (e *UnknownAnalyzerError) Error() string {
	return "unknown analyzer " + e.Name + " (run hwlint -list for the set)"
}
