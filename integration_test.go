package hwstar

// Integration tests: flows that cross module boundaries, including the
// failure-injection requirement from DESIGN.md — interference and machine
// choice may change timing, never results.

import (
	"context"
	"reflect"
	"testing"

	"hwstar/internal/cluster"
	"hwstar/internal/compress"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/queries"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
	hwsort "hwstar/internal/sort"
	"hwstar/internal/vmsim"
	"hwstar/internal/workload"
)

// TestInterferenceChangesTimingNotResults runs the same shared-scan batch
// on an undisturbed and a heavily disturbed scheduler and requires equal
// results with strictly worse timing.
func TestInterferenceChangesTimingNotResults(t *testing.T) {
	m := hw.Server2S()
	rel, err := scan.NewRelation([][]int64{
		workload.UniformInts(51, 40000, 10000),
		workload.UniformInts(52, 40000, 500),
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]scan.Query, 32)
	los := workload.UniformInts(53, len(qs), 9000)
	for i := range qs {
		qs[i] = scan.Query{FilterCol: 0, Lo: los[i], Hi: los[i] + 800, AggCol: 1}
	}
	run := func(interference float64) ([]int64, float64) {
		s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true, Interference: interference})
		if err != nil {
			t.Fatal(err)
		}
		res, schedRes, err := scan.ParallelShared(context.Background(), rel, qs, scan.SharedOptions{UseQueryIndex: true}, s, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return res, schedRes.MakespanCycles
	}
	quiet, quietCycles := run(1)
	noisy, noisyCycles := run(3)
	if !reflect.DeepEqual(quiet, noisy) {
		t.Fatal("interference changed query results")
	}
	if noisyCycles <= quietCycles {
		t.Fatalf("interference should slow the run: %f <= %f", noisyCycles, quietCycles)
	}
}

// TestMachineProfileChangesTimingNotResults runs the same join on all four
// machine profiles: identical matches, different cycles.
func TestMachineProfileChangesTimingNotResults(t *testing.T) {
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 54, BuildRows: 20000, ProbeRows: 80000, ZipfS: 1.2})
	in := join.Input{BuildKeys: g.BuildKeys, BuildVals: g.BuildVals, ProbeKeys: g.ProbeKeys, ProbeVals: g.ProbeVals}
	var matches []int64
	var cycles []float64
	for _, m := range []*Machine{Laptop(), Server2S(), NUMA4S(), Manycore()} {
		acct := hw.NewAccount(m, hw.DefaultContext())
		r, err := join.Radix(in, join.RadixOptions{}, m, acct)
		if err != nil {
			t.Fatal(err)
		}
		matches = append(matches, r.Matches)
		cycles = append(cycles, acct.TotalCycles())
	}
	for i := 1; i < len(matches); i++ {
		if matches[i] != matches[0] {
			t.Fatal("machine profile changed join results")
		}
	}
	distinct := map[float64]bool{}
	for _, c := range cycles {
		distinct[c] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("different machines should price differently: %v", cycles)
	}
}

// TestCompressedDistributedPipeline chains the subsystems: generate, sort,
// compress, ship through a distributed join, and verify against the
// single-node uncompressed reference.
func TestCompressedDistributedPipeline(t *testing.T) {
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 55, BuildRows: 5000, ProbeRows: 20000})
	in := join.Input{BuildKeys: g.BuildKeys, BuildVals: g.BuildVals, ProbeKeys: g.ProbeKeys, ProbeVals: g.ProbeVals}

	// Sort a copy of the probe keys, compress, decode, and make sure the
	// round trip feeds the same multiset into the join.
	sorted := append([]int64(nil), in.ProbeKeys...)
	hwsort.Radix(sorted, hwsort.RadixOptions{}, hw.Server2S())
	c := compress.Encode(sorted)
	if c.Ratio() <= 1 {
		t.Fatalf("sorted keys should compress, ratio %f", c.Ratio())
	}
	decoded := c.Decode()
	var sumA, sumB int64
	for i := range sorted {
		sumA += sorted[i]
		sumB += decoded[i]
	}
	if sumA != sumB || c.Sum() != sumA {
		t.Fatal("compression round trip lost data")
	}

	want, err := join.NPO(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	rack := cluster.Rack10GbE(4)
	got, err := rack.Join(context.Background(), in, cluster.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Fatalf("distributed join disagrees: %+v vs %+v", got.Result, want)
	}
}

// TestEnginesAgreeAcrossLayoutsAndMachines is the widest equivalence net:
// Q1 on every engine must match for multiple machines (the machine only
// affects accounting, which must not touch results).
func TestEnginesAgreeAcrossMachines(t *testing.T) {
	li := workload.LineItem(56, 25000)
	for _, m := range []*Machine{Laptop(), Manycore()} {
		var counts []int64
		for _, eng := range queries.Engines() {
			acct := hw.NewAccount(m, hw.DefaultContext())
			rows, err := queries.Q1(eng, li, queries.DefaultQ1(), acct)
			if err != nil {
				t.Fatal(err)
			}
			var c int64
			for _, r := range rows {
				c += r.Count
			}
			counts = append(counts, c)
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Fatalf("engines disagree on %s: %v", m.Name, counts)
		}
	}
}

// TestVMSimOverRealQueryCosts glues vmsim to a real query's cost profile:
// the distribution input is a priced Q6, so the predictability experiment
// rests on real operator behaviour.
func TestVMSimOverRealQueryCosts(t *testing.T) {
	m := hw.Server2S()
	li := workload.LineItem(57, 50000)
	acct := hw.NewAccount(m, hw.DefaultContext())
	if _, err := queries.Q6(queries.EngineFused, li, queries.DefaultQ6(), acct); err != nil {
		t.Fatal(err)
	}
	spec := vmsim.QuerySpec{Work: hw.Work{
		Tuples:          int64(li.NumRows()),
		ComputePerTuple: acct.Breakdown().Compute / float64(li.NumRows()),
		SeqReadBytes:    int64(li.NumRows()) * 32,
	}}
	quiet, err := vmsim.RunDistribution(m, spec, vmsim.None(), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := vmsim.RunDistribution(m, spec, vmsim.Heavy(), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vmsim.Summarize(noisy).P99 <= vmsim.Summarize(quiet).P99 {
		t.Fatal("heavy interference should inflate the tail of a real query profile")
	}
}
