// NUMA example: the same scan and probe workload against a 1 GiB region
// placed with four different policies on a 4-socket machine. The one-line
// lesson of the keynote's NUMA discussion: an engine that does not know
// where its memory lives leaves 20–80% of the machine on the table.
package main

import (
	"fmt"

	"hwstar"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
)

func main() {
	m := hwstar.NUMA4S()
	fmt.Printf("machine: %s\n\n", m)

	const region = 1 << 30 // 1 GiB working set
	const probes = 1 << 22
	readerSocket := 0
	ctx := hw.DefaultContext()

	fmt.Println("placement                       scan GB/s-equiv   probe ns/access")
	type policyCase struct {
		name      string
		policy    mem.Policy
		allocNode int
	}
	for _, pc := range []policyCase{
		{"local (engine placed it)", mem.PolicyLocal, readerSocket},
		{"interleave (numactl -i all)", mem.PolicyInterleave, readerSocket},
		{"first-touch by loader thread", mem.PolicyFirstTouch, 3},
		{"remote (worst case)", mem.PolicyRemote, readerSocket},
	} {
		alloc := mem.NewNUMAAllocator(m, pc.policy)
		placement := alloc.Place(region, pc.allocNode)

		scanCycles := m.Cycles(mem.ReadWork("scan", placement, readerSocket), ctx)
		probeCycles := m.Cycles(mem.RandomReadWork("probe", placement, readerSocket, probes), ctx)

		scanSec := m.CyclesToSeconds(scanCycles)
		probeNs := m.CyclesToSeconds(probeCycles/probes) * 1e9
		fmt.Printf("%-31s %8.1f          %8.1f\n",
			pc.name, float64(region)/scanSec/1e9, probeNs)
	}

	fmt.Println("\nthe scheduler's socket-local queues (sched.Task.Socket) plus local placement keep")
	fmt.Println("both numbers at the top row; everything else is silent performance loss.")
}
