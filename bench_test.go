package hwstar

// The benchmark harness regenerates every experiment table (E1–E18 plus
// ablations) under `go test -bench`, and additionally benchmarks the real
// wall-clock performance of the core algorithms so the modeled effects can
// be cross-checked against live Go execution on the host:
//
//	go test -bench=BenchmarkE -benchmem        # the experiment suite
//	go test -bench=BenchmarkReal -benchmem     # live algorithm microbenches

import (
	"io"
	"testing"

	"hwstar/internal/cache"
	"hwstar/internal/compress"
	"hwstar/internal/concurrent"
	"hwstar/internal/experiments"
	"hwstar/internal/hw"
	"hwstar/internal/index"
	"hwstar/internal/join"
	"hwstar/internal/queries"
	"hwstar/internal/scan"
	hwsort "hwstar/internal/sort"
	"hwstar/internal/workload"
)

// benchScale keeps a full -bench=. sweep in the minutes range; the hwbench
// binary runs the suite at scale 1.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Scale: benchScale}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// One benchmark per experiment table of DESIGN.md.

func BenchmarkE1Joins(b *testing.B)          { runExperiment(b, "E1") }
func BenchmarkE1aRadixAblation(b *testing.B) { runExperiment(b, "E1a") }
func BenchmarkE1bJoinSkew(b *testing.B)      { runExperiment(b, "E1b") }
func BenchmarkE1cPrefetch(b *testing.B)      { runExperiment(b, "E1c") }
func BenchmarkE2Scaling(b *testing.B)        { runExperiment(b, "E2") }
func BenchmarkE2aStealing(b *testing.B)      { runExperiment(b, "E2a") }
func BenchmarkE2bMorselSize(b *testing.B)    { runExperiment(b, "E2b") }
func BenchmarkE3SharedScan(b *testing.B)     { runExperiment(b, "E3") }
func BenchmarkE4NUMA(b *testing.B)           { runExperiment(b, "E4") }
func BenchmarkE5Layout(b *testing.B)         { runExperiment(b, "E5") }
func BenchmarkE5aAdvisor(b *testing.B)       { runExperiment(b, "E5a") }
func BenchmarkE6Exec(b *testing.B)           { runExperiment(b, "E6") }
func BenchmarkE7Offload(b *testing.B)        { runExperiment(b, "E7") }
func BenchmarkE8Interference(b *testing.B)   { runExperiment(b, "E8") }
func BenchmarkE9Energy(b *testing.B)         { runExperiment(b, "E9") }
func BenchmarkE10Index(b *testing.B)         { runExperiment(b, "E10") }
func BenchmarkE10aYCSB(b *testing.B)         { runExperiment(b, "E10a") }
func BenchmarkE11Sort(b *testing.B)          { runExperiment(b, "E11") }
func BenchmarkE12Compression(b *testing.B)   { runExperiment(b, "E12") }
func BenchmarkE13RackJoin(b *testing.B)      { runExperiment(b, "E13") }
func BenchmarkE14HotCold(b *testing.B)       { runExperiment(b, "E14") }
func BenchmarkE15LatchFree(b *testing.B)     { runExperiment(b, "E15") }
func BenchmarkE16BloomJoin(b *testing.B)     { runExperiment(b, "E16") }
func BenchmarkE17Planner(b *testing.B)       { runExperiment(b, "E17") }
func BenchmarkE18Validation(b *testing.B)    { runExperiment(b, "E18") }
func BenchmarkE19Serve(b *testing.B)         { runExperiment(b, "E19") }
func BenchmarkE20Chaos(b *testing.B)         { runExperiment(b, "E20") }
func BenchmarkE21Observe(b *testing.B)       { runExperiment(b, "E21") }
func BenchmarkE22Memory(b *testing.B)        { runExperiment(b, "E22") }
func BenchmarkE23Tenants(b *testing.B)       { runExperiment(b, "E23") }
func BenchmarkE24Store(b *testing.B)         { runExperiment(b, "E24") }
func BenchmarkE25VecServe(b *testing.B)      { runExperiment(b, "E25") }
func BenchmarkE26Shard(b *testing.B)         { runExperiment(b, "E26") }

// Live microbenchmarks: the real Go implementations on the host CPU.

func benchJoinInput(n int) join.Input {
	g := workload.GenerateJoin(workload.JoinConfig{Seed: 9001, BuildRows: n, ProbeRows: 4 * n})
	return join.Input{BuildKeys: g.BuildKeys, BuildVals: g.BuildVals, ProbeKeys: g.ProbeKeys, ProbeVals: g.ProbeVals}
}

func BenchmarkRealJoinNPO(b *testing.B) {
	in := benchJoinInput(1 << 17)
	b.SetBytes(int64(len(in.BuildKeys)+len(in.ProbeKeys)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.NPO(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealJoinRadix(b *testing.B) {
	in := benchJoinInput(1 << 17)
	m := hw.Server2S()
	b.SetBytes(int64(len(in.BuildKeys)+len(in.ProbeKeys)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.Radix(in, join.RadixOptions{}, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealJoinSortMerge(b *testing.B) {
	in := benchJoinInput(1 << 15)
	b.SetBytes(int64(len(in.BuildKeys)+len(in.ProbeKeys)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.SortMerge(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLineItem(b *testing.B) *Table {
	b.Helper()
	return workload.LineItem(9002, 200_000)
}

func BenchmarkRealQ6Volcano(b *testing.B) {
	li := benchLineItem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.Q6(queries.EngineVolcano, li, queries.DefaultQ6(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealQ6Vectorized(b *testing.B) {
	li := benchLineItem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.Q6(queries.EngineVectorized, li, queries.DefaultQ6(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealQ6Fused(b *testing.B) {
	li := benchLineItem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.Q6(queries.EngineFused, li, queries.DefaultQ6(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealQ1Volcano(b *testing.B) {
	li := benchLineItem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.Q1(queries.EngineVolcano, li, queries.DefaultQ1(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealQ1Fused(b *testing.B) {
	li := benchLineItem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.Q1(queries.EngineFused, li, queries.DefaultQ1(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealBTreeGet(b *testing.B) {
	bt := index.NewBTree(0)
	keys := workload.ShuffledInts(9200, 1<<18)
	for _, k := range keys {
		bt.Insert(k, k)
	}
	probes := workload.UniformInts(9201, 1<<12, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := probes[i%len(probes)]
		if _, ok := bt.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkRealBSTGet(b *testing.B) {
	bst := index.NewBST(0)
	keys := workload.ShuffledInts(9200, 1<<18)
	for _, k := range keys {
		bst.Insert(k, k)
	}
	probes := workload.UniformInts(9201, 1<<12, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := probes[i%len(probes)]
		if _, ok := bst.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkRealSharedScan256Queries(b *testing.B) {
	rel, err := scan.NewRelation([][]int64{
		workload.UniformInts(9300, 1<<18, 100000),
		workload.UniformInts(9301, 1<<18, 1000),
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]scan.Query, 256)
	los := workload.UniformInts(9302, len(qs), 90000)
	for i := range qs {
		qs[i] = scan.Query{FilterCol: 0, Lo: los[i], Hi: los[i] + 5000, AggCol: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.Shared(rel, qs, scan.SharedOptions{UseQueryIndex: true}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealCacheSimAccess(b *testing.B) {
	h := cache.FromMachine(hw.Server2S())
	addrs := workload.UniformInts(9400, 1<<16, 1<<28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(addrs[i%len(addrs)]))
	}
}

func BenchmarkRealRadixSort(b *testing.B) {
	keys := workload.UniformInts(9500, 1<<20, 1<<60)
	m := hw.Server2S()
	buf := make([]int64, len(keys))
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		hwsort.Radix(buf, hwsort.RadixOptions{}, m)
	}
}

func BenchmarkRealComparisonSort(b *testing.B) {
	keys := workload.UniformInts(9500, 1<<20, 1<<60)
	buf := make([]int64, len(keys))
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		hwsort.Comparison(buf)
	}
}

func BenchmarkRealCompressedSum(b *testing.B) {
	c := compress.Encode(workload.UniformInts(9600, 1<<20, 256))
	b.SetBytes(c.RawBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Sum()
	}
}

func BenchmarkRealSkipListInsert(b *testing.B) {
	keys := workload.ShuffledInts(9700, 1<<20)
	b.ResetTimer()
	sl := concurrent.NewSkipList(1)
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		sl.Insert(k, k)
	}
}

func BenchmarkRealLockedTreeInsert(b *testing.B) {
	keys := workload.ShuffledInts(9700, 1<<20)
	b.ResetTimer()
	lt := concurrent.NewLockedTree()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		lt.Insert(k, k)
	}
}
