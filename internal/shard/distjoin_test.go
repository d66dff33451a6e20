package shard

import (
	"slices"
	"testing"

	"hwstar/internal/cluster"
	"hwstar/internal/join"
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
			d := hashPart(k, n)
			want[d].BuildKeys = append(want[d].BuildKeys, k)
			want[d].BuildVals = append(want[d].BuildVals, in.BuildVals[i])
		}
		for i, k := range in.ProbeKeys {
			d := hashPart(k, n)
			want[d].ProbeKeys = append(want[d].ProbeKeys, k)
			want[d].ProbeVals = append(want[d].ProbeVals, in.ProbeVals[i])
		}
		got := splitJoin(in, n, cluster.StrategyShuffle)
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
	for _, sub := range splitJoin(same, 4, cluster.StrategyShuffle) {
		rows += len(sub.BuildKeys) + len(sub.ProbeKeys)
	}
	if rows != 3 {
		t.Fatalf("skewed split holds %d rows, want 3", rows)
	}
}

// TestSplitJoinAllocs pins the shuffle at one allocation per column plus a
// constant (the sub-join headers and each side's cursors and slice headers),
// whatever the input size; a broadcast only slices.
func TestSplitJoinAllocs(t *testing.T) {
	in := benchJoinInput()
	for _, c := range []struct {
		strat cluster.Strategy
		max   float64
	}{{cluster.StrategyShuffle, 4 + 7}, {cluster.StrategyBroadcast, 1}} {
		if got := testing.AllocsPerRun(10, func() { splitJoin(in, 3, c.strat) }); got > c.max {
			t.Errorf("%v split: %.0f allocations, want at most %.0f", c.strat, got, c.max)
		}
	}
}

func BenchmarkSplitJoin(b *testing.B) {
	in := benchJoinInput()
	for _, c := range []struct {
		name  string
		strat cluster.Strategy
	}{{"shuffle", cluster.StrategyShuffle}, {"broadcast", cluster.StrategyBroadcast}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				splitJoin(in, 3, c.strat)
			}
		})
	}
}
