package cluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hwstar/internal/join"
	"hwstar/internal/workload"
)

func testInput(buildRows, probeRows int) join.Input {
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 21, BuildRows: buildRows, ProbeRows: probeRows})
	return join.Input{BuildKeys: g.BuildKeys, BuildVals: g.BuildVals, ProbeKeys: g.ProbeKeys, ProbeVals: g.ProbeVals}
}

func TestClusterValidate(t *testing.T) {
	if err := Rack10GbE(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Cluster{
		{Nodes: 0},
		{Nodes: 2},
		func() Cluster { c := Rack10GbE(2); c.NetBytesPerCycle = 0; return c }(),
		func() Cluster { c := Rack10GbE(2); c.NetLatencyCycles = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad cluster %d should fail validation", i)
		}
	}
}

func TestValidateZeroLatencyFabric(t *testing.T) {
	// NetLatencyCycles == 0 is the documented ideal-fabric case: valid, and
	// joins over it price pure bandwidth with no per-transfer floor.
	c := Rack10GbE(4)
	c.NetLatencyCycles = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("zero-latency fabric must validate: %v", err)
	}
	in := testInput(2000, 8000)
	ideal, err := c.Join(context.Background(), in, StrategyShuffle)
	if err != nil {
		t.Fatal(err)
	}
	real, err := Rack10GbE(4).Join(context.Background(), in, StrategyShuffle)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.BytesMoved != real.BytesMoved {
		t.Fatalf("latency must not change traffic: %d vs %d", ideal.BytesMoved, real.BytesMoved)
	}
	wantDelta := Rack10GbE(4).NetLatencyCycles
	if got := real.NetworkCycles - ideal.NetworkCycles; got != wantDelta {
		t.Fatalf("network cycles delta = %v, want exactly the serialization floor %v", got, wantDelta)
	}

	// Non-finite network parameters are rejected, not silently priced.
	for i, c := range []Cluster{
		func() Cluster { c := Rack10GbE(2); c.NetLatencyCycles = math.NaN(); return c }(),
		func() Cluster { c := Rack10GbE(2); c.NetLatencyCycles = math.Inf(1); return c }(),
		func() Cluster { c := Rack10GbE(2); c.NetBytesPerCycle = math.NaN(); return c }(),
		func() Cluster { c := Rack10GbE(2); c.NetBytesPerCycle = math.Inf(1); return c }(),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("non-finite cluster %d should fail validation", i)
		}
	}
}

func TestJoinContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Rack10GbE(4).Join(ctx, testInput(100, 100), StrategyShuffle)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join returned %v, want context.Canceled", err)
	}
}

func TestDistributedJoinMatchesLocal(t *testing.T) {
	in := testInput(4000, 16000)
	want, err := join.NPO(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 8} {
		c := Rack10GbE(nodes)
		for _, strat := range []Strategy{StrategyShuffle, StrategyBroadcast, StrategyAuto} {
			res, err := c.Join(context.Background(), in, strat)
			if err != nil {
				t.Fatalf("%d nodes / %s: %v", nodes, strat, err)
			}
			if res.Matches != want.Matches || res.Checksum != want.Checksum {
				t.Fatalf("%d nodes / %s: %d matches, want %d", nodes, strat, res.Matches, want.Matches)
			}
		}
	}
}

func TestDuplicateKeysAcrossNodes(t *testing.T) {
	in := join.Input{
		BuildKeys: []int64{5, 5, 9, 9, 9},
		BuildVals: []int64{1, 2, 3, 4, 5},
		ProbeKeys: []int64{5, 9, 5, 9, 7},
		ProbeVals: []int64{10, 20, 30, 40, 50},
	}
	want, _ := join.NestedLoop(in, nil)
	c := Rack10GbE(3)
	for _, strat := range []Strategy{StrategyShuffle, StrategyBroadcast} {
		res, err := c.Join(context.Background(), in, strat)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want.Matches || res.Checksum != want.Checksum {
			t.Fatalf("%s: %+v, want %+v", strat, res.Result, want)
		}
	}
}

func TestSingleNodeMovesNothing(t *testing.T) {
	in := testInput(1000, 4000)
	c := Rack10GbE(1)
	res, err := c.Join(context.Background(), in, StrategyShuffle)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesMoved != 0 || res.NetworkCycles != 0 {
		t.Fatalf("single node moved %d bytes", res.BytesMoved)
	}
}

func TestPredictBytesShapes(t *testing.T) {
	c := Rack10GbE(8)
	// Tiny build, huge probe: broadcast moves far less.
	sb, bb := c.PredictBytes(1000, 10_000_000)
	if bb >= sb {
		t.Fatalf("small build: broadcast %d should beat shuffle %d", bb, sb)
	}
	// Equal sides: shuffle moves less (broadcast replicates N-1 times).
	sb, bb = c.PredictBytes(5_000_000, 5_000_000)
	if sb >= bb {
		t.Fatalf("equal sides: shuffle %d should beat broadcast %d", sb, bb)
	}
	// One node: nothing moves.
	sb, bb = Rack10GbE(1).PredictBytes(100, 100)
	if sb != 0 || bb != 0 {
		t.Fatal("single node should predict zero traffic")
	}
}

func TestAutoPicksCheaperStrategy(t *testing.T) {
	c := Rack10GbE(8)
	smallBuild := testInput(500, 40000)
	res, err := c.Join(context.Background(), smallBuild, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyBroadcast {
		t.Fatalf("small build should broadcast, picked %s", res.Strategy)
	}
	bigBuild := testInput(40000, 40000)
	res, err = c.Join(context.Background(), bigBuild, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyShuffle {
		t.Fatalf("equal sides should shuffle, picked %s", res.Strategy)
	}
}

func TestActualTrafficMatchesPrediction(t *testing.T) {
	c := Rack10GbE(4)
	in := testInput(8000, 32000)
	res, err := c.Join(context.Background(), in, StrategyShuffle)
	if err != nil {
		t.Fatal(err)
	}
	predicted, _ := c.PredictBytes(8000, 32000)
	// Hash placement vs round-robin start: traffic is ~(N-1)/N of the data,
	// within a few percent of the prediction.
	ratio := float64(res.BytesMoved) / float64(predicted)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("shuffle traffic %d vs predicted %d (ratio %.3f)", res.BytesMoved, predicted, ratio)
	}

	resB, err := c.Join(context.Background(), in, StrategyBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	_, predictedB := c.PredictBytes(8000, 32000)
	if resB.BytesMoved != predictedB {
		t.Fatalf("broadcast traffic %d, predicted %d", resB.BytesMoved, predictedB)
	}
}

func TestFasterFabricShrinksNetworkTime(t *testing.T) {
	in := testInput(20000, 80000)
	slow, err := Rack10GbE(4).Join(context.Background(), in, StrategyShuffle)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Rack40GbE(4).Join(context.Background(), in, StrategyShuffle)
	if err != nil {
		t.Fatal(err)
	}
	if fast.NetworkCycles >= slow.NetworkCycles {
		t.Fatalf("40GbE network time %f should beat 10GbE %f", fast.NetworkCycles, slow.NetworkCycles)
	}
	if fast.Matches != slow.Matches {
		t.Fatal("fabric speed must not change results")
	}
}

func TestJoinErrors(t *testing.T) {
	c := Rack10GbE(2)
	if _, err := c.Join(context.Background(), join.Input{BuildKeys: []int64{1}}, StrategyShuffle); err == nil {
		t.Fatal("invalid input should fail")
	}
	if _, err := c.Join(context.Background(), testInput(10, 10), Strategy("bogus")); err == nil {
		t.Fatal("unknown strategy should fail")
	}
	bad := Cluster{Nodes: 0}
	if _, err := bad.Join(context.Background(), testInput(10, 10), StrategyShuffle); err == nil {
		t.Fatal("invalid cluster should fail")
	}
}

// Property: both strategies agree with the single-machine reference on
// arbitrary inputs and node counts.
func TestDistributedEquivalenceProperty(t *testing.T) {
	f := func(buildRaw, probeRaw []uint8, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%6 + 1
		in := join.Input{
			BuildKeys: make([]int64, len(buildRaw)),
			BuildVals: make([]int64, len(buildRaw)),
			ProbeKeys: make([]int64, len(probeRaw)),
			ProbeVals: make([]int64, len(probeRaw)),
		}
		for i, b := range buildRaw {
			in.BuildKeys[i] = int64(b % 24)
			in.BuildVals[i] = int64(i)
		}
		for i, p := range probeRaw {
			in.ProbeKeys[i] = int64(p % 32)
			in.ProbeVals[i] = int64(i * 3)
		}
		want, err := join.NestedLoop(in, nil)
		if err != nil {
			return false
		}
		c := Rack10GbE(nodes)
		for _, strat := range []Strategy{StrategyShuffle, StrategyBroadcast} {
			got, err := c.Join(context.Background(), in, strat)
			if err != nil || got.Matches != want.Matches || got.Checksum != want.Checksum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
