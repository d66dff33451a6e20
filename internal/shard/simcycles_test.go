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
// agg and join moved onto pooled tables. The model prices what an operator
// tells it (tuples, bytes, working sets), not how the host ran it, so a
// change that is only about the host must leave every one of these digits
// where it is; a change that means to move one updates vecexec/costs.go or
// the operator's charge, says why, and re-records the line.
var simCyclesGolden = []float64{
	77456.28571428571, 67843.42857142858, 84878.28571428571, 81467.28571428571, 81329.28571428571, 87447.28571428571, 77708.28571428571, 56702, // scans
	131364.93333333335, 170750, // join, group-sum
	82953.28571428571, 64595.42857142857, 64665.42857142857, 82372.28571428571, 76910.28571428571, 81399.28571428571, 68774.42857142858, 82316.28571428571, // scans
	219866.66666666666, 255180.8, // join, group-sum
	82015.28571428571, 71163.42857142858, 68795.42857142858, 68237.42857142858, 81630.28571428571, 66681.42857142858, 87577.28571428571, 55764, // scans
	448899.4666666667, 550670.4, // join, group-sum
	77432.28571428571, 83821.28571428571, 84782.28571428571, 68956.42857142858, 83630.28571428571, 83746.28571428571, 67598.42857142858, 69651.42857142858, // scans
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
