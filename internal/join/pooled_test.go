package join

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hwstar/internal/hw"
	"hwstar/internal/sched"
	"hwstar/internal/workload"
)

// TestJoinsAgreeOnExtremeKeys: every algorithm that builds a pooled table
// matches the nested-loop reference over keys an open-addressing table could
// mistake for an empty slot (0) or mis-hash (negatives, both int64 extremes),
// with duplicates on both sides — and again on the tables the first pass
// returned.
func TestJoinsAgreeOnExtremeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	domain := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -4096, 4096, 7, -7}
	side := func(n int) (keys, vals []int64) {
		keys, vals = make([]int64, n), make([]int64, n)
		for i := range keys {
			keys[i], vals[i] = domain[rng.Intn(len(domain))], rng.Int63()
		}
		return
	}
	m := hw.Laptop()
	for round := 0; round < 3; round++ {
		var in Input
		in.BuildKeys, in.BuildVals = side(200 + 50*round)
		in.ProbeKeys, in.ProbeVals = side(900)
		want := mustJoin(t, func() (Result, error) { return NestedLoop(in, nil) })
		for name, f := range map[string]func() (Result, error){
			"npo":      func() (Result, error) { return NPO(in, nil) },
			"prefetch": func() (Result, error) { return NPOPrefetch(in, nil) },
			"bloom":    func() (Result, error) { return NPOBloom(in, nil) },
			"radix":    func() (Result, error) { return Radix(in, RadixOptions{TotalBits: 4}, m, nil) },
			"parallel-npo": func() (Result, error) {
				s, _ := sched.New(m, sched.Options{Workers: 4, Stealing: true})
				r, err := ParallelNPO(context.Background(), in, s, 128)
				return r.Result, err
			},
			"parallel-radix": func() (Result, error) {
				s, _ := sched.New(m, sched.Options{Workers: 4, Stealing: true})
				r, err := ParallelRadix(context.Background(), in, RadixOptions{}, s, m, 128)
				return r.Result, err
			},
		} {
			if got := mustJoin(t, f); got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("round %d %s: %d matches, checksum %x; nested loop has %d, %x", round, name, got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
		}
	}
}

// npoBenchInput is one stripe of hwperf's join: the 4096 x 16384 body
// hash-split three ways.
func npoBenchInput() Input {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 1, BuildRows: 4096 / 3, ProbeRows: 16384 / 3})
	return Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
}

// TestNPOAllocs: a warm NPO join takes its table from the pool; the 17
// bytes a slot (68 KB for this build side) are not allocated again.
func TestNPOAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	in := npoBenchInput()
	if _, err := NPO(in, nil); err != nil { // warm the pool
		t.Fatal(err)
	}
	// A GC between two runs empties the pool; the pin is the steady state.
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := NPO(in, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if best > 1024 {
		t.Fatalf("a warm NPO join allocated %d bytes", best)
	}
}

// BenchmarkNPO is one stripe's join, serial and as serve runs it.
func BenchmarkNPO(b *testing.B) {
	in := npoBenchInput()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NPO(in, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		m := hw.Server2S()
		s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParallelNPO(context.Background(), in, s, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
