package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProfilesValidate(t *testing.T) {
	for name, m := range Profiles() {
		if err := m.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"zero sockets", func(m *Machine) { m.Sockets = 0 }},
		{"no caches", func(m *Machine) { m.Caches = nil }},
		{"shrinking cache", func(m *Machine) { m.Caches[1].SizeBytes = 1 }},
		{"fast DRAM", func(m *Machine) { m.MemLatencyCycles = 1 }},
		{"remote faster than local", func(m *Machine) { m.RemoteLatencyCycles = 10 }},
		{"zero bandwidth", func(m *Machine) { m.MemBWPerSocket = 0 }},
		{"zero MLP", func(m *Machine) { m.MLP = 0 }},
		{"zero TLB", func(m *Machine) { m.TLBEntries = 0 }},
	}
	for _, tc := range cases {
		m := Server2S()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid machine", tc.name)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	m := NUMA4S()
	if got := m.TotalCores(); got != 64 {
		t.Fatalf("TotalCores = %d, want 64", got)
	}
	if m.LLC().Name != "L3" {
		t.Fatalf("LLC = %s, want L3", m.LLC().Name)
	}
	if m.LineBytes() != 64 {
		t.Fatalf("LineBytes = %d, want 64", m.LineBytes())
	}
	if got := m.TLBReach(); got != int64(m.TLBEntries)*m.PageBytes {
		t.Fatalf("TLBReach = %d", got)
	}
	if m.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestRandomLatencyMonotoneInWorkingSet(t *testing.T) {
	m := Server2S()
	sizes := []int64{1 * KiB, 16 * KiB, 64 * KiB, 1 * MiB, 8 * MiB, 64 * MiB, 1 * GiB, 16 * GiB}
	prev := 0.0
	for _, ws := range sizes {
		lat := m.RandomLatency(ws)
		if lat < prev {
			t.Fatalf("latency decreased at ws=%d: %f < %f", ws, lat, prev)
		}
		prev = lat
	}
}

func TestRandomLatencyLevels(t *testing.T) {
	m := Server2S()
	if got := m.RandomLatency(16 * KiB); got != 4 {
		t.Fatalf("L1-resident latency = %f, want 4", got)
	}
	if got := m.RandomLatency(128 * KiB); got != 12 {
		t.Fatalf("L2-resident latency = %f, want 12", got)
	}
	// L3-resident but far beyond the 256 KiB TLB reach: base 40 cycles plus
	// the expected TLB-miss cost.
	wantL3 := 40 + (1-0.025)*35.0
	if got := m.RandomLatency(10 * MiB); math.Abs(got-wantL3) > 1e-9 {
		t.Fatalf("L3-resident latency = %f, want %f", got, wantL3)
	}
	// Within TLB reach the cache latency is pure.
	if got := m.RandomLatency(200 * KiB); got != 12 {
		t.Fatalf("TLB-covered L2 latency = %f, want 12", got)
	}
	// Beyond LLC but within TLB reach would need ws <= 256KiB, so a large
	// working set always includes some TLB-miss cost.
	big := m.RandomLatency(4 * GiB)
	if big <= m.MemLatencyCycles {
		t.Fatalf("huge working set latency %f should exceed pure DRAM latency %f", big, m.MemLatencyCycles)
	}
}

func TestRemoteRandomLatencyExceedsLocal(t *testing.T) {
	m := NUMA4S()
	ws := int64(1 * GiB)
	local, remote := m.RandomLatency(ws), m.RemoteRandomLatency(ws)
	if remote <= local {
		t.Fatalf("remote %f should exceed local %f", remote, local)
	}
	// Cache-resident working sets should not pay the remote penalty.
	small := int64(1 * MiB)
	if m.RemoteRandomLatency(small) != m.RandomLatency(small) {
		t.Fatalf("cache-resident remote latency should equal local")
	}
}

func TestStreamBandwidthSharing(t *testing.T) {
	m := Server2S()
	one := m.StreamBandwidth(1)
	if one != m.CoreStreamBW {
		t.Fatalf("single-core BW = %f, want core cap %f", one, m.CoreStreamBW)
	}
	all := m.StreamBandwidth(m.CoresPerSocket)
	if want := m.MemBWPerSocket / float64(m.CoresPerSocket); math.Abs(all-want) > 1e-12 {
		t.Fatalf("full-socket per-core BW = %f, want %f", all, want)
	}
	// Monotone non-increasing in active cores.
	prev := math.Inf(1)
	for c := 1; c <= m.CoresPerSocket; c++ {
		bw := m.StreamBandwidth(c)
		if bw > prev {
			t.Fatalf("bandwidth increased at %d cores", c)
		}
		prev = bw
	}
	// Aggregate bandwidth must never exceed the socket limit.
	for c := 1; c <= m.CoresPerSocket; c++ {
		if agg := m.StreamBandwidth(c) * float64(c); agg > m.MemBWPerSocket+1e-9 {
			t.Fatalf("aggregate BW %f exceeds socket limit at %d cores", agg, c)
		}
	}
}

func TestRemoteStreamBandwidthCappedByInterconnect(t *testing.T) {
	m := NUMA4S()
	for c := 1; c <= m.CoresPerSocket; c++ {
		if rb, lb := m.RemoteStreamBandwidth(c), m.StreamBandwidth(c); rb > lb {
			t.Fatalf("remote BW %f exceeds local %f at %d cores", rb, lb, c)
		}
		if agg := m.RemoteStreamBandwidth(c) * float64(c); agg > m.InterconnectBW+1e-9 {
			t.Fatalf("aggregate remote BW %f exceeds interconnect at %d cores", agg, c)
		}
	}
	// Single socket machine: remote == local.
	l := Manycore()
	if l.RemoteStreamBandwidth(3) != l.StreamBandwidth(3) {
		t.Fatal("single-socket remote BW should equal local")
	}
}

func TestContentionFactorRange(t *testing.T) {
	m := Server2S()
	if got := m.ContentionFactor(1); got != 1 {
		t.Fatalf("contention(1) = %f, want 1", got)
	}
	if got := m.ContentionFactor(m.CoresPerSocket); math.Abs(got-2) > 1e-12 {
		t.Fatalf("contention(full) = %f, want 2", got)
	}
	if got := m.ContentionFactor(100); math.Abs(got-2) > 1e-12 {
		t.Fatalf("contention should clamp to socket size")
	}
}

func TestCostComponents(t *testing.T) {
	m := Server2S()
	ctx := DefaultContext()

	// Pure compute.
	c := m.Cost(Work{Tuples: 1000, ComputePerTuple: 3}, ctx)
	if c.Compute != 3000 || c.Streaming != 0 || c.RandomAccess != 0 {
		t.Fatalf("pure compute mispriced: %+v", c)
	}

	// Pure streaming: bytes / core bandwidth.
	c = m.Cost(Work{SeqReadBytes: 1000}, ctx)
	if want := 1000 / m.CoreStreamBW; math.Abs(c.Streaming-want) > 1e-9 {
		t.Fatalf("streaming = %f, want %f", c.Streaming, want)
	}

	// Random access in L1: latency not divided by MLP.
	c = m.Cost(Work{RandomReads: 100, RandomWS: 8 * KiB}, ctx)
	if want := 100 * 4.0; math.Abs(c.RandomAccess-want) > 1e-9 {
		t.Fatalf("L1 random = %f, want %f", c.RandomAccess, want)
	}

	// Branch misses.
	c = m.Cost(Work{BranchMisses: 10}, ctx)
	if want := 10 * m.BranchMissCycles; math.Abs(c.Branches-want) > 1e-9 {
		t.Fatalf("branches = %f, want %f", c.Branches, want)
	}
}

func TestCostDRAMRandomUsesMLP(t *testing.T) {
	m := Server2S()
	ctx := DefaultContext()
	ws := int64(4 * GiB)
	c := m.Cost(Work{RandomReads: 1000, RandomWS: ws}, ctx)
	perAccess := c.RandomAccess / 1000
	raw := m.RandomLatency(ws)
	if perAccess >= raw {
		t.Fatalf("MLP should amortize DRAM latency: %f >= %f", perAccess, raw)
	}
	if want := raw / m.MLP; math.Abs(perAccess-want) > 1e-9 {
		t.Fatalf("per-access = %f, want %f", perAccess, want)
	}
}

func TestCostInterferenceSlowsMemory(t *testing.T) {
	m := Server2S()
	w := Work{SeqReadBytes: 1 << 20, RandomReads: 1000, RandomWS: 1 * GiB}
	base := m.Cycles(w, ExecContext{ActiveCoresOnSocket: 1, InterferenceFactor: 1})
	noisy := m.Cycles(w, ExecContext{ActiveCoresOnSocket: 1, InterferenceFactor: 2})
	if noisy <= base {
		t.Fatalf("interference should slow memory-bound work: %f <= %f", noisy, base)
	}
	// Compute-bound work is unaffected.
	cw := Work{Tuples: 1000, ComputePerTuple: 5}
	if m.Cycles(cw, ExecContext{ActiveCoresOnSocket: 1, InterferenceFactor: 3}) != m.Cycles(cw, DefaultContext()) {
		t.Fatal("interference should not slow pure compute")
	}
}

func TestCostMoreActiveCoresMoreCyclesPerCore(t *testing.T) {
	m := Server2S()
	w := Work{SeqReadBytes: 64 << 20, RandomReads: 1 << 20, RandomWS: 1 * GiB}
	solo := m.Cycles(w, ExecContext{ActiveCoresOnSocket: 1, InterferenceFactor: 1})
	crowded := m.Cycles(w, ExecContext{ActiveCoresOnSocket: m.CoresPerSocket, InterferenceFactor: 1})
	if crowded <= solo {
		t.Fatalf("sharing a socket should inflate per-core cycles: %f <= %f", crowded, solo)
	}
}

func TestAccountAccumulates(t *testing.T) {
	m := Laptop()
	acct := NewAccount(m, DefaultContext())
	c1 := acct.Charge(Work{Name: "build", Tuples: 100, ComputePerTuple: 2})
	c2 := acct.Charge(Work{Name: "probe", SeqReadBytes: 6400})
	if math.Abs(acct.TotalCycles()-(c1+c2)) > 1e-9 {
		t.Fatalf("total %f != %f + %f", acct.TotalCycles(), c1, c2)
	}
	if bd := acct.Breakdown(); bd.Compute <= 0 || bd.Streaming <= 0 {
		t.Fatalf("breakdown lost a phase: %+v", bd)
	}
	if acct.Breakdown().Total() != acct.TotalCycles() {
		t.Fatal("breakdown total mismatch")
	}
}

// Property: cost is additive — pricing a+b equals pricing a plus pricing b
// for compute/streaming/branch components under identical context (random
// access costs are additive only at equal working sets, so we fix RandomWS).
func TestCostAdditivityProperty(t *testing.T) {
	m := Server2S()
	ctx := ExecContext{ActiveCoresOnSocket: 4, InterferenceFactor: 1.5}
	f := func(t1, t2 uint16, b1, b2 uint16, r1, r2 uint8) bool {
		ws := int64(512 * MiB)
		wa := Work{Tuples: int64(t1), ComputePerTuple: 2, SeqReadBytes: int64(b1), RandomReads: int64(r1), RandomWS: ws}
		wb := Work{Tuples: int64(t2), ComputePerTuple: 2, SeqReadBytes: int64(b2), RandomReads: int64(r2), RandomWS: ws}
		sum := Work{Tuples: wa.Tuples + wb.Tuples, ComputePerTuple: 2, SeqReadBytes: wa.SeqReadBytes + wb.SeqReadBytes,
			RandomReads: wa.RandomReads + wb.RandomReads, RandomWS: ws}
		lhs := m.Cycles(sum, ctx)
		rhs := m.Cycles(wa, ctx) + m.Cycles(wb, ctx)
		return math.Abs(lhs-rhs) < 1e-6*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesToSeconds(t *testing.T) {
	m := Laptop()
	if got := m.CyclesToSeconds(2.6e9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("2.6e9 cycles = %f s, want 1", got)
	}
}

func TestExecContextNormalization(t *testing.T) {
	m := Laptop()
	bad := ExecContext{ActiveCoresOnSocket: 0, InterferenceFactor: 0}
	good := DefaultContext()
	w := Work{SeqReadBytes: 4096, RandomReads: 10, RandomWS: 1 * GiB}
	if m.Cycles(w, bad) != m.Cycles(w, good) {
		t.Fatal("zero-valued context should normalize to default")
	}
}

func TestIndependentAccessesOverlapInCache(t *testing.T) {
	m := Server2S()
	ctx := DefaultContext()
	ws := int64(2 * MiB) // LLC-resident
	dep := Work{RandomReads: 1000, RandomWS: ws}
	ind := Work{RandomReads: 1000, RandomWS: ws, IndependentAccesses: true}
	cd, ci := m.Cycles(dep, ctx), m.Cycles(ind, ctx)
	if ci >= cd {
		t.Fatalf("independent cache-resident accesses %f should be cheaper than dependent %f", ci, cd)
	}
	if want := cd / m.MLP; math.Abs(ci-want) > 1e-9 {
		t.Fatalf("independent latency = %f, want %f", ci, want)
	}
	// DRAM-class accesses are already MLP-amortized: the flag adds nothing.
	big := int64(4 * GiB)
	depBig := Work{RandomReads: 1000, RandomWS: big}
	indBig := Work{RandomReads: 1000, RandomWS: big, IndependentAccesses: true}
	if m.Cycles(depBig, ctx) != m.Cycles(indBig, ctx) {
		t.Fatal("DRAM-class independent accesses should price the same")
	}
	// Latency never drops below one cycle.
	tiny := Work{RandomReads: 100, RandomWS: 1 * KiB, IndependentAccesses: true, MLPBoost: 100}
	if got := m.Cycles(tiny, ctx); got < 100 {
		t.Fatalf("per-access latency floored at 1 cycle, got %f total", got)
	}
}

func TestHugeTLB(t *testing.T) {
	m := Server2S()
	if m.HugeTLBReach() != int64(m.HugeTLBEntries)*m.HugePageBytes {
		t.Fatal("HugeTLBReach arithmetic wrong")
	}
	// A 4 MiB working set: base pages thrash the TLB, hugepages cover it.
	ws := int64(4 * MiB)
	base := m.RandomLatency(ws)
	huge := m.RandomLatencyHuge(ws)
	if huge >= base {
		t.Fatalf("hugepage latency %f should beat base-page %f", huge, base)
	}
	if huge != m.LLC().LatencyCycles {
		t.Fatalf("hugepage L3-resident latency = %f, want pure %f", huge, m.LLC().LatencyCycles)
	}
	// Beyond even the huge reach (64 MiB here), both pay TLB misses again.
	big := int64(1 << 30)
	if m.RandomLatencyHuge(big) <= m.MemLatencyCycles {
		t.Fatal("beyond huge reach the TLB cost must return")
	}
	// A machine without hugepage support: huge == base.
	none := Server2S()
	none.HugeTLBEntries = 0
	if none.RandomLatencyHuge(ws) != none.RandomLatency(ws) {
		t.Fatal("no hugepage support should fall back to base reach")
	}
	// Work-level flag routes through the huge path.
	w := Work{RandomReads: 100, RandomWS: ws, HugePages: true}
	wBase := Work{RandomReads: 100, RandomWS: ws}
	if m.Cycles(w, DefaultContext()) >= m.Cycles(wBase, DefaultContext()) {
		t.Fatal("HugePages work should price below base-page work")
	}
}

func TestBreakdownString(t *testing.T) {
	c := CostBreakdown{Compute: 1, Streaming: 2, RandomAccess: 3, Branches: 4}
	if c.String() == "" || c.Total() != 10 {
		t.Fatalf("breakdown = %q total %f", c.String(), c.Total())
	}
}

func TestCostRemoteSeqAndRemoteRandom(t *testing.T) {
	m := NUMA4S()
	ctx := DefaultContext()
	local := m.Cycles(Work{SeqReadBytes: 1 << 20}, ctx)
	remote := m.Cycles(Work{RemoteSeqBytes: 1 << 20}, ctx)
	if remote <= local {
		t.Fatalf("remote streaming %f should exceed local %f", remote, local)
	}
	rr := m.Cycles(Work{RemoteRandomReads: 1000, RandomWS: 1 << 30}, ctx)
	lr := m.Cycles(Work{RandomReads: 1000, RandomWS: 1 << 30}, ctx)
	if rr <= lr {
		t.Fatalf("remote random %f should exceed local %f", rr, lr)
	}
}

func TestStreamBandwidthClamps(t *testing.T) {
	m := Server2S()
	if m.StreamBandwidth(0) != m.StreamBandwidth(1) {
		t.Fatal("zero cores should clamp to one")
	}
	if m.StreamBandwidth(100) != m.StreamBandwidth(m.CoresPerSocket) {
		t.Fatal("excess cores should clamp to socket size")
	}
	if m.RemoteStreamBandwidth(0) <= 0 {
		t.Fatal("remote bandwidth should clamp too")
	}
}
