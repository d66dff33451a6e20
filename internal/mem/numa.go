package mem

import (
	"fmt"

	"hwstar/internal/hw"
)

// Policy selects how a region's pages are distributed over NUMA nodes.
type Policy int

const (
	// PolicyLocal binds every page to the allocating socket — the placement
	// a NUMA-aware engine strives for.
	PolicyLocal Policy = iota
	// PolicyInterleave spreads pages round-robin over all nodes — the OS
	// default many systems fall back to, trading latency for balance.
	PolicyInterleave
	// PolicyRemote binds every page to one node that is not the reader's —
	// the pathological placement a NUMA-oblivious engine can stumble into.
	PolicyRemote
	// PolicyFirstTouch binds pages to whichever socket first touches them;
	// in this model it resolves to the node passed at placement time, like
	// PolicyLocal, but is tracked separately because a first-touch region
	// read by a different socket later is the classic NUMA trap.
	PolicyFirstTouch
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLocal:
		return "local"
	case PolicyInterleave:
		return "interleave"
	case PolicyRemote:
		return "remote"
	case PolicyFirstTouch:
		return "first-touch"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Placement records how many bytes of a region live on each NUMA node.
type Placement struct {
	// PerNode[i] is the number of bytes resident on node i.
	PerNode []int64
}

// TotalBytes returns the region size.
func (p Placement) TotalBytes() int64 {
	var t int64
	for _, b := range p.PerNode {
		t += b
	}
	return t
}

// LocalRemote splits the region into bytes local to readerNode and bytes on
// other nodes.
func (p Placement) LocalRemote(readerNode int) (local, remote int64) {
	for node, b := range p.PerNode {
		if node == readerNode {
			local += b
		} else {
			remote += b
		}
	}
	return local, remote
}

// LocalFraction returns the fraction of the region local to readerNode,
// or 1 for an empty region.
func (p Placement) LocalFraction(readerNode int) float64 {
	local, remote := p.LocalRemote(readerNode)
	total := local + remote
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// NUMAAllocator produces Placements on a given machine according to a policy.
// It also tracks per-node occupancy so experiments can report balance.
type NUMAAllocator struct {
	machine *hw.Machine
	policy  Policy
	perNode []int64
	nextRR  int
}

// NewNUMAAllocator returns an allocator for machine m using policy p.
func NewNUMAAllocator(m *hw.Machine, p Policy) *NUMAAllocator {
	return &NUMAAllocator{machine: m, policy: p, perNode: make([]int64, m.Sockets)}
}

// Place assigns bytes for a region allocated by code running on
// allocatingNode and returns the resulting placement. allocatingNode is
// clamped into range.
func (na *NUMAAllocator) Place(bytes int64, allocatingNode int) Placement {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: Place(%d): negative size", bytes))
	}
	n := na.machine.Sockets
	if allocatingNode < 0 {
		allocatingNode = 0
	}
	if allocatingNode >= n {
		allocatingNode = n - 1
	}
	per := make([]int64, n)
	switch na.policy {
	case PolicyLocal, PolicyFirstTouch:
		per[allocatingNode] = bytes
	case PolicyInterleave:
		base := bytes / int64(n)
		rem := bytes % int64(n)
		for i := 0; i < n; i++ {
			per[i] = base
		}
		// Distribute the remainder round-robin starting at a rotating node
		// so repeated small placements stay balanced.
		for i := int64(0); i < rem; i++ {
			per[(na.nextRR+int(i))%n]++
		}
		na.nextRR = (na.nextRR + int(rem)) % n
	case PolicyRemote:
		target := (allocatingNode + 1) % n
		per[target] = bytes
	default:
		panic(fmt.Sprintf("mem: unknown policy %d", int(na.policy)))
	}
	for i, b := range per {
		na.perNode[i] += b
	}
	return Placement{PerNode: per}
}

// NodeOccupancy returns a copy of cumulative bytes placed per node.
func (na *NUMAAllocator) NodeOccupancy() []int64 {
	out := make([]int64, len(na.perNode))
	copy(out, na.perNode)
	return out
}

// ReadWork converts reading a placed region sequentially from readerNode into
// a hw.Work description: local bytes stream at socket bandwidth, remote bytes
// cross the interconnect.
func ReadWork(name string, p Placement, readerNode int) hw.Work {
	local, remote := p.LocalRemote(readerNode)
	return hw.Work{Name: name, SeqReadBytes: local, RemoteSeqBytes: remote}
}

// RandomReadWork converts n random reads against a placed region from
// readerNode into hw.Work: accesses split between local and remote in
// proportion to the placement, with the full region as working set.
func RandomReadWork(name string, p Placement, readerNode int, reads int64) hw.Work {
	frac := p.LocalFraction(readerNode)
	localReads := int64(frac * float64(reads))
	return hw.Work{
		Name:              name,
		RandomReads:       localReads,
		RemoteRandomReads: reads - localReads,
		RandomWS:          p.TotalBytes(),
	}
}
