package join

import (
	"context"
	"testing"
	"testing/quick"

	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
	"hwstar/internal/sched"
	"hwstar/internal/workload"
)

func smallInput() Input {
	return Input{
		BuildKeys: []int64{1, 2, 3, 4, 5},
		BuildVals: []int64{10, 20, 30, 40, 50},
		ProbeKeys: []int64{3, 3, 5, 9, 1},
		ProbeVals: []int64{100, 200, 300, 400, 500},
	}
}

func TestInputValidate(t *testing.T) {
	bad := Input{BuildKeys: []int64{1}, BuildVals: nil}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched build slices should fail")
	}
	bad = Input{ProbeKeys: []int64{1}, ProbeVals: nil}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched probe slices should fail")
	}
	if err := smallInput().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmsAgreeOnSmallInput(t *testing.T) {
	in := smallInput()
	want, err := NestedLoop(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Matches != 4 { // keys 3 (twice), 5, 1 match; 9 misses
		t.Fatalf("reference matches = %d, want 4", want.Matches)
	}
	m := hw.Server2S()
	algos := map[string]func() (Result, error){
		"npo":        func() (Result, error) { return NPO(in, nil) },
		"radix":      func() (Result, error) { return Radix(in, RadixOptions{}, m, nil) },
		"radix-sw":   func() (Result, error) { return Radix(in, RadixOptions{TotalBits: 4, SWBuffers: true}, m, nil) },
		"sort-merge": func() (Result, error) { return SortMerge(in, nil) },
	}
	for name, run := range algos {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Fatalf("%s: result %+v, want %+v", name, got, want)
		}
	}
}

func TestDuplicateKeysCrossProduct(t *testing.T) {
	in := Input{
		BuildKeys: []int64{5, 5, 6},
		BuildVals: []int64{1, 2, 3},
		ProbeKeys: []int64{5, 5, 5, 6},
		ProbeVals: []int64{10, 20, 30, 40},
	}
	want, _ := NestedLoop(in, nil)
	if want.Matches != 2*3+1 {
		t.Fatalf("reference matches = %d, want 7", want.Matches)
	}
	m := hw.Laptop()
	for name, got := range map[string]Result{
		"npo":        mustJoin(t, func() (Result, error) { return NPO(in, nil) }),
		"radix":      mustJoin(t, func() (Result, error) { return Radix(in, RadixOptions{TotalBits: 2}, m, nil) }),
		"sort-merge": mustJoin(t, func() (Result, error) { return SortMerge(in, nil) }),
	} {
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Fatalf("%s: %+v, want %+v", name, got, want)
		}
	}
}

func mustJoin(t *testing.T, f func() (Result, error)) Result {
	t.Helper()
	r, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEmptyInputs(t *testing.T) {
	m := hw.Laptop()
	empty := Input{}
	for name, f := range map[string]func() (Result, error){
		"npo":        func() (Result, error) { return NPO(empty, nil) },
		"radix":      func() (Result, error) { return Radix(empty, RadixOptions{}, m, nil) },
		"sort-merge": func() (Result, error) { return SortMerge(empty, nil) },
		"nested":     func() (Result, error) { return NestedLoop(empty, nil) },
	} {
		r, err := f()
		if err != nil || r.Matches != 0 {
			t.Fatalf("%s on empty input: %+v, %v", name, r, err)
		}
	}
}

func TestGeneratedWorkloadAgreement(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 11, BuildRows: 2000, ProbeRows: 8000, ZipfS: 1.3, Miss: 0.2})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	m := hw.Server2S()
	want := mustJoin(t, func() (Result, error) { return NPO(in, nil) })
	if got := mustJoin(t, func() (Result, error) { return Radix(in, RadixOptions{}, m, nil) }); got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Fatalf("radix disagrees: %+v vs %+v", got, want)
	}
	if got := mustJoin(t, func() (Result, error) { return SortMerge(in, nil) }); got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Fatalf("sort-merge disagrees: %+v vs %+v", got, want)
	}
	// Unique build keys, 20% misses: matches = ~80% of probes.
	if want.Matches < 6000 || want.Matches > 6800 {
		t.Fatalf("matches = %d, expected ~6400", want.Matches)
	}
}

func TestRadixOptionsResolve(t *testing.T) {
	m := hw.Server2S()
	o := RadixOptions{}.resolve(m, 1<<22) // 4M build tuples = 64 MiB
	if o.TotalBits <= 0 {
		t.Fatal("auto TotalBits should be positive for a large build side")
	}
	// Partitions must fit half the L2.
	partBytes := int64(1<<22) * tupleBytes >> uint(o.TotalBits)
	if partBytes > m.Caches[1].SizeBytes/2 {
		t.Fatalf("auto-tuned partition %d bytes exceeds L2/2", partBytes)
	}
	if o.MaxBitsPerPass != 6 { // log2(64 TLB entries)
		t.Fatalf("MaxBitsPerPass = %d, want 6", o.MaxBitsPerPass)
	}
	// Tiny build side needs no partitioning.
	o = RadixOptions{}.resolve(m, 100)
	if o.TotalBits != 0 {
		t.Fatalf("tiny build side should need 0 bits, got %d", o.TotalBits)
	}
	// Cap at 24 bits.
	o = RadixOptions{TotalBits: 30}.resolve(m, 1000)
	if o.TotalBits != 24 {
		t.Fatalf("TotalBits should cap at 24, got %d", o.TotalBits)
	}
}

func TestPlanPasses(t *testing.T) {
	if p := planPasses(RadixOptions{TotalBits: 0}); p != nil {
		t.Fatalf("0 bits → no passes, got %v", p)
	}
	if p := planPasses(RadixOptions{TotalBits: 14, MaxBitsPerPass: 6}); len(p) != 3 || p[0] != 6 || p[1] != 6 || p[2] != 2 {
		t.Fatalf("passes = %v", p)
	}
	if p := planPasses(RadixOptions{TotalBits: 14, MaxBitsPerPass: 6, SWBuffers: true}); len(p) != 1 || p[0] != 14 {
		t.Fatalf("SW-buffered passes = %v", p)
	}
}

func TestRadixPartitionIsPermutation(t *testing.T) {
	keys := workload.UniformInts(3, 5000, 1<<40)
	vals := workload.SequentialInts(5000)
	p := radixPartition(keys, vals, 4, 0)
	if len(p.keys) != 5000 || p.offsets[len(p.offsets)-1] != 5000 {
		t.Fatal("partition lost tuples")
	}
	// Key-value pairing preserved and every partition internally consistent.
	orig := map[int64]int64{}
	for i, k := range keys {
		orig[k] = vals[i] // keys are unique w.h.p. in a 2^40 domain
	}
	for part := 0; part < 16; part++ {
		pk, pv := p.partition(part)
		for i, k := range pk {
			if orig[k] != pv[i] {
				t.Fatalf("pairing broken for key %d", k)
			}
			if int((hashtab.Hash(k))&15) != part {
				t.Fatalf("key %d in wrong partition %d", k, part)
			}
		}
	}
}

func TestCostAccountingShape(t *testing.T) {
	// On a large join (build-side hash table far beyond the LLC), the
	// oblivious NPO must cost more simulated cycles than the
	// hardware-conscious radix join — the keynote's headline claim.
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 5, BuildRows: 1 << 21, ProbeRows: 1 << 22})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	m := hw.Server2S()

	npo := mustJoin(t, func() (Result, error) { return NPO(in, hw.NewAccount(m, hw.DefaultContext())) })
	radix := mustJoin(t, func() (Result, error) {
		return Radix(in, RadixOptions{}, m, hw.NewAccount(m, hw.DefaultContext()))
	})
	if npo.Matches != radix.Matches || npo.Checksum != radix.Checksum {
		t.Fatal("results disagree")
	}
	if npo.SimCycles <= radix.SimCycles {
		t.Fatalf("large join: NPO %.0f cycles should exceed radix %.0f", npo.SimCycles, radix.SimCycles)
	}

	// On a cache-resident join the ordering flips: partitioning is wasted
	// work when the whole table already fits in cache.
	small := workload.GenerateJoin(workload.JoinConfig{Seed: 6, BuildRows: 4096, ProbeRows: 1 << 16})
	sin := Input{BuildKeys: small.BuildKeys, BuildVals: small.BuildVals, ProbeKeys: small.ProbeKeys, ProbeVals: small.ProbeVals}
	npoS := mustJoin(t, func() (Result, error) { return NPO(sin, hw.NewAccount(m, hw.DefaultContext())) })
	radixS := mustJoin(t, func() (Result, error) {
		// Force partitioning to make the waste visible.
		return Radix(sin, RadixOptions{TotalBits: 8}, m, hw.NewAccount(m, hw.DefaultContext()))
	})
	if radixS.SimCycles <= npoS.SimCycles {
		t.Fatalf("cache-resident join: forced radix %.0f should exceed NPO %.0f", radixS.SimCycles, npoS.SimCycles)
	}
}

func TestSWBuffersBeatUnbufferedWideFanout(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 7, BuildRows: 1 << 18, ProbeRows: 1 << 19})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	m := hw.Server2S()
	wide := RadixOptions{TotalBits: 12, MaxBitsPerPass: 12} // fan-out 4096 >> 64 TLB entries
	unbuf := mustJoin(t, func() (Result, error) {
		return Radix(in, wide, m, hw.NewAccount(m, hw.DefaultContext()))
	})
	wide.SWBuffers = true
	buf := mustJoin(t, func() (Result, error) {
		return Radix(in, wide, m, hw.NewAccount(m, hw.DefaultContext()))
	})
	if buf.Matches != unbuf.Matches {
		t.Fatal("results disagree")
	}
	if buf.SimCycles >= unbuf.SimCycles {
		t.Fatalf("software-managed buffers %.0f should beat unbuffered wide fan-out %.0f", buf.SimCycles, unbuf.SimCycles)
	}
}

func TestParallelJoinsMatchSerial(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 8, BuildRows: 3000, ProbeRows: 9000, ZipfS: 1.2})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	want := mustJoin(t, func() (Result, error) { return NPO(in, nil) })

	m := hw.Server2S()
	s, err := sched.New(m, sched.Options{Workers: 8, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	pn, err := ParallelNPO(context.Background(), in, s, 512)
	if err != nil {
		t.Fatal(err)
	}
	if pn.Matches != want.Matches || pn.Checksum != want.Checksum {
		t.Fatalf("parallel NPO %+v, want %+v", pn.Result, want)
	}
	if len(pn.Phases) != 2 || pn.MakespanCycles <= 0 {
		t.Fatalf("parallel NPO phases: %+v", pn.Phases)
	}

	pr, err := ParallelRadix(context.Background(), in, RadixOptions{TotalBits: 5}, s, m, 512)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Matches != want.Matches || pr.Checksum != want.Checksum {
		t.Fatalf("parallel radix %+v, want %+v", pr.Result, want)
	}
	if len(pr.Phases) != 3 {
		t.Fatalf("parallel radix should have 3 phases, got %d", len(pr.Phases))
	}
}

func TestParallelRadixScalesWithWorkers(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 9, BuildRows: 1 << 16, ProbeRows: 1 << 18})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	m := hw.Server2S()
	run := func(workers int) float64 {
		s, _ := sched.New(m, sched.Options{Workers: workers, Stealing: true})
		r, err := ParallelRadix(context.Background(), in, RadixOptions{}, s, m, 1<<13)
		if err != nil {
			t.Fatal(err)
		}
		return r.MakespanCycles
	}
	m1, m8 := run(1), run(8)
	if m8 >= m1 {
		t.Fatalf("8 workers (%.0f) should beat 1 (%.0f)", m8, m1)
	}
	if m1/m8 > 8.01 {
		t.Fatalf("speedup %f exceeds worker count", m1/m8)
	}
}

func TestParallelEmptyInput(t *testing.T) {
	m := hw.Laptop()
	s, _ := sched.New(m, sched.Options{Workers: 2})
	r, err := ParallelRadix(context.Background(), Input{}, RadixOptions{}, s, m, 0)
	if err != nil || r.Matches != 0 {
		t.Fatalf("empty parallel radix: %+v, %v", r, err)
	}
	rn, err := ParallelNPO(context.Background(), Input{}, s, 0)
	if err != nil || rn.Matches != 0 {
		t.Fatalf("empty parallel NPO: %+v, %v", rn, err)
	}
}

func TestParallelValidation(t *testing.T) {
	m := hw.Laptop()
	s, _ := sched.New(m, sched.Options{Workers: 1})
	bad := Input{BuildKeys: []int64{1}}
	if _, err := ParallelNPO(context.Background(), bad, s, 0); err == nil {
		t.Fatal("invalid input should fail")
	}
	if _, err := ParallelRadix(context.Background(), bad, RadixOptions{}, s, m, 0); err == nil {
		t.Fatal("invalid input should fail")
	}
}

// Property: all algorithms (serial and parallel) produce identical results
// on arbitrary inputs including duplicates and misses.
func TestAlgorithmsEquivalenceProperty(t *testing.T) {
	m := hw.Laptop()
	f := func(buildRaw, probeRaw []uint8) bool {
		in := Input{
			BuildKeys: make([]int64, len(buildRaw)),
			BuildVals: make([]int64, len(buildRaw)),
			ProbeKeys: make([]int64, len(probeRaw)),
			ProbeVals: make([]int64, len(probeRaw)),
		}
		for i, b := range buildRaw {
			in.BuildKeys[i] = int64(b % 32) // force duplicates and misses
			in.BuildVals[i] = int64(i * 7)
		}
		for i, p := range probeRaw {
			in.ProbeKeys[i] = int64(p % 48)
			in.ProbeVals[i] = int64(i * 13)
		}
		want, err := NestedLoop(in, nil)
		if err != nil {
			return false
		}
		got1, err := NPO(in, nil)
		if err != nil || got1 != want {
			return false
		}
		got2, err := Radix(in, RadixOptions{TotalBits: 3}, m, nil)
		if err != nil || got2 != want {
			return false
		}
		got3, err := SortMerge(in, nil)
		if err != nil || got3 != want {
			return false
		}
		s, _ := sched.New(m, sched.Options{Workers: 3, Stealing: true})
		got4, err := ParallelRadix(context.Background(), in, RadixOptions{TotalBits: 3}, s, m, 16)
		if err != nil || got4.Matches != want.Matches || got4.Checksum != want.Checksum {
			return false
		}
		got5, err := ParallelNPO(context.Background(), in, s, 16)
		if err != nil || got5.Matches != want.Matches || got5.Checksum != want.Checksum {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNPOPrefetchMatchesNPO(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 31, BuildRows: 3000, ProbeRows: 10000, ZipfS: 1.2, Miss: 0.1})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	want := mustJoin(t, func() (Result, error) { return NPO(in, nil) })
	got := mustJoin(t, func() (Result, error) { return NPOPrefetch(in, nil) })
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Fatalf("prefetch NPO disagrees: %+v vs %+v", got, want)
	}
	if _, err := NPOPrefetch(Input{BuildKeys: []int64{1}}, nil); err == nil {
		t.Fatal("invalid input should fail")
	}
}

func TestNPOPrefetchClosesGapToRadix(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 32, BuildRows: 1 << 21, ProbeRows: 1 << 22})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	m := hw.Server2S()
	npo := mustJoin(t, func() (Result, error) { return NPO(in, hw.NewAccount(m, hw.DefaultContext())) })
	gp := mustJoin(t, func() (Result, error) { return NPOPrefetch(in, hw.NewAccount(m, hw.DefaultContext())) })
	radix := mustJoin(t, func() (Result, error) {
		return Radix(in, RadixOptions{}, m, hw.NewAccount(m, hw.DefaultContext()))
	})
	if gp.Matches != npo.Matches {
		t.Fatal("results disagree")
	}
	// Group prefetching must recover most of the naive NPO's loss, landing
	// in the radix join's performance class (the GP/AMAC literature shows
	// prefetch-restructured NPO competitive with partitioned joins).
	if gp.SimCycles >= npo.SimCycles*0.75 {
		t.Fatalf("gp %.0f should clearly beat naive npo %.0f", gp.SimCycles, npo.SimCycles)
	}
	ratio := gp.SimCycles / radix.SimCycles
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("gp %.0f should be radix-class (radix %.0f, ratio %.2f)", gp.SimCycles, radix.SimCycles, ratio)
	}
}

func TestNPOBloomMatchesNPO(t *testing.T) {
	gen := workload.GenerateJoin(workload.JoinConfig{Seed: 33, BuildRows: 4000, ProbeRows: 16000, Miss: 0.4})
	in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
	want := mustJoin(t, func() (Result, error) { return NPO(in, nil) })
	got := mustJoin(t, func() (Result, error) { return NPOBloom(in, nil) })
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Fatalf("bloom join disagrees: %+v vs %+v", got, want)
	}
	if _, err := NPOBloom(Input{BuildKeys: []int64{1}}, nil); err == nil {
		t.Fatal("invalid input should fail")
	}
}

func TestNPOBloomPaysOffAtHighMissRate(t *testing.T) {
	m := hw.Server2S()
	cost := func(miss float64) (plain, bloomed float64) {
		gen := workload.GenerateJoin(workload.JoinConfig{Seed: 34, BuildRows: 1 << 20, ProbeRows: 1 << 22, Miss: miss})
		in := Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
		pa := hw.NewAccount(m, hw.DefaultContext())
		// The fair baseline is the group-prefetched probe loop the bloom
		// variant is built on.
		pr := mustJoin(t, func() (Result, error) { return NPOPrefetch(in, pa) })
		ba := hw.NewAccount(m, hw.DefaultContext())
		br := mustJoin(t, func() (Result, error) { return NPOBloom(in, ba) })
		if pr.Matches != br.Matches {
			t.Fatal("results disagree")
		}
		return pa.TotalCycles(), ba.TotalCycles()
	}
	// All-match probes: the filter is overhead.
	if plain, bloomed := cost(0); bloomed <= plain {
		t.Fatalf("0%% misses: bloom %f should cost more than plain %f", bloomed, plain)
	}
	// Overwhelmingly-missing probes: the filter wins. (Against the
	// prefetched baseline the break-even sits high — rejecting a probe only
	// saves an already-overlapped table access.)
	if plain, bloomed := cost(0.95); bloomed >= plain {
		t.Fatalf("95%% misses: bloom %f should beat plain %f", bloomed, plain)
	}
}

// TestAutoAlgorithmLLCBoundary pins the one "auto" rule at its edge on every
// machine profile: the last build size whose 34-byte-a-row hash table fits
// the LLC runs NPO, one row more runs radix.
func TestAutoAlgorithmLLCBoundary(t *testing.T) {
	for name, m := range hw.Profiles() {
		fits := int(m.LLC().SizeBytes / 34)
		for _, tc := range []struct {
			rows int
			want Algorithm
		}{
			{0, AlgNPO},
			{fits, AlgNPO},
			{fits + 1, AlgRadix},
			{fits * 4, AlgRadix},
		} {
			if got := AutoAlgorithm(m, tc.rows); got != tc.want {
				t.Errorf("%s (LLC %d B): AutoAlgorithm(%d rows) = %s, want %s", name, m.LLC().SizeBytes, tc.rows, got, tc.want)
			}
		}
	}
}
