package mem

import (
	"testing"
	"testing/quick"

	"hwstar/internal/hw"
)

func TestArenaAlloc(t *testing.T) {
	a := NewArena(128)
	s1 := a.Alloc(10)
	s2 := a.Alloc(20)
	if len(s1) != 10 || len(s2) != 20 {
		t.Fatalf("lengths = %d, %d", len(s1), len(s2))
	}
	for i := range s1 {
		s1[i] = 0xAA
	}
	for _, b := range s2 {
		if b != 0 {
			t.Fatal("allocations must not overlap or alias")
		}
	}
	if a.AllocatedBytes() != 30 {
		t.Fatalf("allocated = %d, want 30", a.AllocatedBytes())
	}
}

func TestArenaLargeAllocation(t *testing.T) {
	a := NewArena(64)
	big := a.Alloc(1000)
	if len(big) != 1000 {
		t.Fatalf("len = %d", len(big))
	}
	if a.FootprintBytes() < 1000 {
		t.Fatalf("footprint = %d", a.FootprintBytes())
	}
}

func TestArenaChunkRollover(t *testing.T) {
	a := NewArena(100)
	a.Alloc(60)
	a.Alloc(60) // does not fit the first chunk
	if a.FootprintBytes() != 200 {
		t.Fatalf("footprint = %d, want 200 (two chunks)", a.FootprintBytes())
	}
}

func TestArenaRelease(t *testing.T) {
	a := NewArena(0) // default chunk size
	a.Alloc(10)
	a.Release()
	if a.AllocatedBytes() != 0 || a.FootprintBytes() != 0 {
		t.Fatal("release should zero accounting")
	}
	if s := a.Alloc(5); len(s) != 5 {
		t.Fatal("arena should be reusable after release")
	}
}

func TestArenaNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Alloc should panic")
		}
	}()
	NewArena(0).Alloc(-1)
}

func TestArenaSlicesDoNotGrowIntoEachOther(t *testing.T) {
	a := NewArena(1024)
	s1 := a.Alloc(8)
	s2 := a.Alloc(8)
	s1 = append(s1, 1) // must reallocate due to capped capacity, not clobber s2
	for _, b := range s2 {
		if b != 0 {
			t.Fatal("append to earlier slice clobbered later allocation")
		}
	}
	_ = s1
}

func TestTypedArena(t *testing.T) {
	a := NewTypedArena[int64](16)
	s := a.Alloc(10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	big := a.Alloc(100)
	if len(big) != 100 {
		t.Fatalf("big len = %d", len(big))
	}
	if a.AllocatedElems() != 110 {
		t.Fatalf("allocated = %d", a.AllocatedElems())
	}
	a.Release()
	if a.AllocatedElems() != 0 {
		t.Fatal("release should zero accounting")
	}
}

func TestTypedArenaZeroed(t *testing.T) {
	a := NewTypedArena[uint32](8)
	s1 := a.Alloc(4)
	for i := range s1 {
		s1[i] = 7
	}
	s2 := a.Alloc(4)
	for _, v := range s2 {
		if v != 0 {
			t.Fatal("fresh allocation must be zeroed")
		}
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		PolicyLocal:      "local",
		PolicyInterleave: "interleave",
		PolicyRemote:     "remote",
		PolicyFirstTouch: "first-touch",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func TestPlacementLocal(t *testing.T) {
	m := hw.NUMA4S()
	na := NewNUMAAllocator(m, PolicyLocal)
	p := na.Place(1000, 2)
	if p.TotalBytes() != 1000 {
		t.Fatalf("total = %d", p.TotalBytes())
	}
	local, remote := p.LocalRemote(2)
	if local != 1000 || remote != 0 {
		t.Fatalf("local/remote = %d/%d", local, remote)
	}
	if f := p.LocalFraction(0); f != 0 {
		t.Fatalf("fraction from node 0 = %f, want 0", f)
	}
}

func TestPlacementInterleave(t *testing.T) {
	m := hw.NUMA4S()
	na := NewNUMAAllocator(m, PolicyInterleave)
	p := na.Place(1001, 0)
	if p.TotalBytes() != 1001 {
		t.Fatalf("total = %d", p.TotalBytes())
	}
	// Every node gets 250, one gets the extra byte.
	var extras int
	for _, b := range p.PerNode {
		switch b {
		case 250:
		case 251:
			extras++
		default:
			t.Fatalf("unexpected per-node bytes %d", b)
		}
	}
	if extras != 1 {
		t.Fatalf("extras = %d, want 1", extras)
	}
	if f := p.LocalFraction(1); f < 0.24 || f > 0.26 {
		t.Fatalf("interleaved local fraction = %f, want ~0.25", f)
	}
}

func TestPlacementRemote(t *testing.T) {
	m := hw.Server2S()
	na := NewNUMAAllocator(m, PolicyRemote)
	p := na.Place(500, 0)
	local, remote := p.LocalRemote(0)
	if local != 0 || remote != 500 {
		t.Fatalf("remote policy: local/remote = %d/%d", local, remote)
	}
}

func TestPlacementFirstTouch(t *testing.T) {
	m := hw.Server2S()
	na := NewNUMAAllocator(m, PolicyFirstTouch)
	p := na.Place(100, 1)
	if p.PerNode[1] != 100 {
		t.Fatalf("first-touch should bind to toucher: %v", p.PerNode)
	}
}

func TestPlaceClampsNode(t *testing.T) {
	m := hw.Server2S()
	na := NewNUMAAllocator(m, PolicyLocal)
	p := na.Place(10, 99)
	if p.PerNode[m.Sockets-1] != 10 {
		t.Fatalf("out-of-range node should clamp: %v", p.PerNode)
	}
	p = na.Place(10, -5)
	if p.PerNode[0] != 10 {
		t.Fatalf("negative node should clamp to 0: %v", p.PerNode)
	}
}

func TestOccupancyAndImbalance(t *testing.T) {
	m := hw.Server2S()
	local := NewNUMAAllocator(m, PolicyLocal)
	local.Place(100, 0)
	local.Place(100, 0)
	if occ := local.NodeOccupancy(); occ[0] != 200 || occ[1] != 0 {
		t.Fatalf("all-on-one-node occupancy = %v, want [200 0]", occ)
	}
	inter := NewNUMAAllocator(m, PolicyInterleave)
	inter.Place(100, 0)
	if occ := inter.NodeOccupancy(); occ[0] != 50 || occ[1] != 50 {
		t.Fatalf("interleave occupancy = %v, want [50 50]", occ)
	}
	empty := NewNUMAAllocator(m, PolicyLocal)
	if occ := empty.NodeOccupancy(); occ[0] != 0 || occ[1] != 0 {
		t.Fatalf("empty allocator occupancy = %v", occ)
	}
}

func TestReadWorkConversion(t *testing.T) {
	m := hw.NUMA4S()
	na := NewNUMAAllocator(m, PolicyInterleave)
	p := na.Place(4000, 0)
	w := ReadWork("scan", p, 0)
	if w.SeqReadBytes != 1000 || w.RemoteSeqBytes != 3000 {
		t.Fatalf("read work = %+v", w)
	}
}

func TestRandomReadWorkConversion(t *testing.T) {
	m := hw.Server2S()
	na := NewNUMAAllocator(m, PolicyLocal)
	p := na.Place(1<<20, 1)
	w := RandomReadWork("probe", p, 1, 1000)
	if w.RandomReads != 1000 || w.RemoteRandomReads != 0 {
		t.Fatalf("local probe work = %+v", w)
	}
	w = RandomReadWork("probe", p, 0, 1000)
	if w.RandomReads != 0 || w.RemoteRandomReads != 1000 {
		t.Fatalf("remote probe work = %+v", w)
	}
	if w.RandomWS != 1<<20 {
		t.Fatalf("working set = %d", w.RandomWS)
	}
}

// Property: placement conserves bytes and never assigns negative amounts,
// for any policy and any node.
func TestPlacementConservationProperty(t *testing.T) {
	m := hw.NUMA4S()
	f := func(bytes uint32, node uint8, polRaw uint8) bool {
		pol := Policy(int(polRaw) % 4)
		na := NewNUMAAllocator(m, pol)
		p := na.Place(int64(bytes), int(node)%8)
		if p.TotalBytes() != int64(bytes) {
			return false
		}
		for _, b := range p.PerNode {
			if b < 0 {
				return false
			}
		}
		local, remote := p.LocalRemote(0)
		return local+remote == int64(bytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated interleaved placements stay balanced within one byte per
// node times the number of placements.
func TestInterleaveBalanceProperty(t *testing.T) {
	m := hw.NUMA4S()
	f := func(sizes []uint16) bool {
		na := NewNUMAAllocator(m, PolicyInterleave)
		for _, s := range sizes {
			na.Place(int64(s), 0)
		}
		occ := na.NodeOccupancy()
		var minB, maxB int64 = 1 << 62, 0
		for _, b := range occ {
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
		}
		return maxB-minB <= int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
