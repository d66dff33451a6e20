// Package experiments implements the E1–E26 experiment suite defined in
// DESIGN.md: each experiment operationalizes one claim of the keynote
// "Hardware killed the software star" as a parameter sweep over the hwstar
// engine and its hardware-oblivious baselines, and renders the results as
// tables. cmd/hwbench runs them from the command line; bench_test.go wraps
// each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hwstar/internal/bench"
)

// Table is the result-table type experiments produce (see internal/bench).
type Table = bench.Table

// Config scales experiment sizes. Scale 1 is the full (paper-style) size;
// tests run at a small fraction to stay fast. Machine profiles are fixed per
// experiment so results are comparable across runs.
type Config struct {
	Scale float64
}

// TestConfig runs experiments at a fraction of full size, for unit tests and
// smoke runs.
func TestConfig() Config { return Config{Scale: 0.05} }

// scaled returns n scaled by the config, floored at min.
func (c Config) scaled(n int, min int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < min {
		v = min
	}
	return v
}

// closedLoop is the suite's one closed-loop driver: clients goroutines each
// call submit(c, i) for i in [0, requests), back to back. It returns the wall
// milliseconds of every call that returned nil, in completion order.
func closedLoop(clients, requests int, submit func(c, i int) error) []float64 {
	var mu sync.Mutex
	var latencies []float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				start := time.Now()
				if submit(c, i) != nil {
					continue
				}
				ms := float64(time.Since(start).Microseconds()) / 1000
				mu.Lock()
				latencies = append(latencies, ms)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return latencies
}

// quantileOf is the suite's one quantile rule: element int(q*(n-1)) of the
// sorted samples (0 for none). The input is not reordered.
func quantileOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// Experiment is one entry of the suite.
type Experiment struct {
	// ID is the experiment identifier ("E1", "E2a", ...).
	ID string
	// Title is a one-line description; Claim the keynote claim it tests.
	Title string
	Claim string
	// Run executes the experiment and returns its result tables.
	Run func(cfg Config) ([]*Table, error)
}

// registry holds all experiments, populated by init functions in the
// per-experiment files.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", e.ID))
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders E1 < E1a < E2 < ... < E10 (numeric then suffix).
func idLess(a, b string) bool {
	na, sa := splitID(a)
	nb, sb := splitID(b)
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func splitID(id string) (int, string) {
	var n int
	var suffix string
	fmt.Sscanf(id, "E%d%s", &n, &suffix)
	return n, suffix
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e, nil
}
