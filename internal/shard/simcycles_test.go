package shard

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwstar/internal/agg"
	"hwstar/internal/join"
	"hwstar/internal/serve"
	"hwstar/internal/workload"
)

// simCyclesGolden holds the modeled cost of simCyclesRequests' forty
// requests, in order, through a 3x2 router, as recorded at the commit before
// agg and join moved onto pooled tables; the 32 scan values were re-recorded
// when the router began settling stripes by their zones, because a stripe
// the range misses or covers whole adds no cycles and the gather hop is
// priced over the dispatched stripes only. The model prices what an operator
// tells it (tuples, bytes, working sets), not how the host ran it, so a
// change that is only about the host must leave every one of these digits
// where it is; a change that means to move one updates vecexec/costs.go or
// the operator's charge, says why, and re-records the line.
var simCyclesGolden = []float64{
	27360.285714285714, 17747.428571428572, 34782.28571428571, 31371.285714285714, 31233.285714285714, 37351.28571428571, 27612.285714285714, 6606, // scans
	131364.93333333335, 170750, // join, group-sum
	32857.28571428571, 14499.42857142857, 14569.42857142857, 32276.285714285714, 26814.285714285714, 31303.285714285714, 68742.42857142858, 32220.285714285714, // scans
	219866.66666666666, 255180.8, // join, group-sum
	31919.285714285714, 71131.42857142858, 68763.42857142858, 18141.428571428572, 31534.285714285714, 66649.42857142858, 37481.28571428571, 5668, // scans
	448899.4666666667, 550670.4, // join, group-sum
	27336.285714285714, 33725.28571428571, 34686.28571428571, 18860.428571428572, 33534.28571428571, 33650.28571428571, 17502.428571428572, 19555.428571428572, // scans
	851785.2, 1.4968224e+06, // join, group-sum
}

// simCyclesRequests is 32 scans, 4 joins (each algorithm choice) and 4
// group-sums (each strategy, local-merge at two sizes), interleaved, from one
// seed.
func simCyclesRequests() []serve.Request {
	rng := rand.New(rand.NewSource(21))
	var reqs []serve.Request
	strategies := []agg.Strategy{agg.StrategyGlobal, agg.StrategyLocalMerge, agg.StrategyRadix, agg.StrategyLocalMerge}
	algorithms := []join.Algorithm{"auto", join.AlgNPO, join.AlgRadix, ""}
	for i := 0; i < 4; i++ {
		for s := 0; s < 8; s++ {
			lo := rng.Int63n(50_000)
			reqs = append(reqs, scanReq("events", lo, lo+rng.Int63n(5_000)))
		}
		g := workload.GenerateJoin(workload.JoinConfig{Seed: int64(30 + i), BuildRows: 1000 << i, ProbeRows: 6000 << i})
		j := serve.Request{Op: serve.OpJoin, Algorithm: algorithms[i]}
		j.Join.BuildKeys, j.Join.BuildVals, j.Join.ProbeKeys, j.Join.ProbeVals = g.BuildKeys, g.BuildVals, g.ProbeKeys, g.ProbeVals
		reqs = append(reqs, j)
		reqs = append(reqs, serve.Request{Op: serve.OpGroupSum, Strategy: strategies[i],
			Keys: workload.UniformInts(int64(40+i), 20_000<<i/2, 64<<(2*i)), Vals: workload.UniformInts(int64(50+i), 20_000<<i/2, 1000)})
	}
	return reqs
}

// TestSimCyclesGolden compares modeled cycles with ==. Requests run one at a
// time (every scan is a batch of one) and hedging is off, so nothing about
// the host's timing can reach the figures.
func TestSimCyclesGolden(t *testing.T) {
	cols, _ := testRelation(50_000)
	r := newRouter(t, Options{Shards: 3, Replicas: 2, hedgeDelay: time.Hour})
	if err := r.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, req := range simCyclesRequests() {
		resp, err := r.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.Op, err)
		}
		got = append(got, strconv.FormatFloat(resp.SimCycles, 'g', -1, 64))
		if i < len(simCyclesGolden) && resp.SimCycles != simCyclesGolden[i] {
			t.Errorf("request %d (%s): SimCycles = %v, recorded %v", i, req.Op, resp.SimCycles, simCyclesGolden[i])
		}
	}
	if len(got) != len(simCyclesGolden) {
		t.Fatalf("%d requests, %d recorded values; this run's are:\n%s,", len(got), len(simCyclesGolden), strings.Join(got, ", "))
	}
}
