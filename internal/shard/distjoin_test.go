package shard

import (
	"slices"
	"testing"

	"hwstar/internal/cluster"
	"hwstar/internal/join"
	"hwstar/internal/mem"
	"hwstar/internal/workload"
)

// benchJoinInput is hwperf's inline join shape: 4096 build rows, 16384 probes.
func benchJoinInput() join.Input {
	return join.Input{
		BuildKeys: workload.UniformInts(1, 4096, 8192), BuildVals: workload.UniformInts(2, 4096, 1000),
		ProbeKeys: workload.UniformInts(3, 16384, 8192), ProbeVals: workload.UniformInts(4, 16384, 1000),
	}
}

// TestSplitJoinShuffle checks the counted partition against the obvious one
// (append each row to its key's sub-join): same rows, same order, and no
// sub-join able to grow into its neighbour's share of the backing array.
func TestSplitJoinShuffle(t *testing.T) {
	in := benchJoinInput()
	for _, n := range []int{2, 3, 7} {
		want := make([]join.Input, n)
		for i, k := range in.BuildKeys {
			d := cluster.HashNode(k, n)
			want[d].BuildKeys = append(want[d].BuildKeys, k)
			want[d].BuildVals = append(want[d].BuildVals, in.BuildVals[i])
		}
		for i, k := range in.ProbeKeys {
			d := cluster.HashNode(k, n)
			want[d].ProbeKeys = append(want[d].ProbeKeys, k)
			want[d].ProbeVals = append(want[d].ProbeVals, in.ProbeVals[i])
		}
		got := splitJoin(in, n, cluster.StrategyShuffle, nil)
		for d := range want {
			for _, c := range []struct {
				name      string
				got, want []int64
			}{
				{"build keys", got[d].BuildKeys, want[d].BuildKeys},
				{"build vals", got[d].BuildVals, want[d].BuildVals},
				{"probe keys", got[d].ProbeKeys, want[d].ProbeKeys},
				{"probe vals", got[d].ProbeVals, want[d].ProbeVals},
			} {
				if !slices.Equal(c.got, c.want) {
					t.Fatalf("n=%d sub-join %d: %s differ from the append partition", n, d, c.name)
				}
				if cap(c.got) != len(c.got) {
					t.Fatalf("n=%d sub-join %d: %s has cap %d past len %d", n, d, c.name, cap(c.got), len(c.got))
				}
			}
		}
	}
	// Every key on one sub-join leaves the others empty, not out of range.
	same := join.Input{BuildKeys: []int64{5, 5}, BuildVals: []int64{1, 2}, ProbeKeys: []int64{5}, ProbeVals: []int64{3}}
	rows := 0
	for _, sub := range splitJoin(same, 4, cluster.StrategyShuffle, nil) {
		rows += len(sub.BuildKeys) + len(sub.ProbeKeys)
	}
	if rows != 3 {
		t.Fatalf("skewed split holds %d rows, want 3", rows)
	}
}

// TestSplitJoinAllocs pins the shuffle at one allocation per column plus a
// constant (the sub-join headers and each side's cursors and slice headers),
// whatever the input size; a broadcast only slices. With a warm lease the
// columns come from its pools, so only the constant is left.
func TestSplitJoinAllocs(t *testing.T) {
	in := benchJoinInput()
	for _, c := range []struct {
		name   string
		strat  cluster.Strategy
		leased bool
		max    float64
	}{
		{"shuffle", cluster.StrategyShuffle, false, 4 + 7},
		{"leased shuffle", cluster.StrategyShuffle, true, 7},
		{"broadcast", cluster.StrategyBroadcast, false, 1},
	} {
		if c.leased && raceEnabled {
			continue // sync.Pool drops Puts at random under the race detector
		}
		if got := testing.AllocsPerRun(10, func() { splitOnce(in, c.strat, c.leased) }); got > c.max {
			t.Errorf("%s split: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}

// splitOnce splits in three ways, its shuffle columns leased or made.
func splitOnce(in join.Input, strat cluster.Strategy, leased bool) {
	var lease *mem.Lease
	if leased {
		lease = mem.NewLease()
	}
	splitJoin(in, 3, strat, lease)
	lease.Release()
}

func BenchmarkSplitJoin(b *testing.B) {
	in := benchJoinInput()
	for _, c := range []struct {
		name   string
		strat  cluster.Strategy
		leased bool
	}{{"shuffle", cluster.StrategyShuffle, false}, {"shuffle-leased", cluster.StrategyShuffle, true}, {"broadcast", cluster.StrategyBroadcast, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				splitOnce(in, c.strat, c.leased)
			}
		})
	}
}
