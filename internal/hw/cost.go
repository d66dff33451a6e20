package hw

import (
	"fmt"
	"math"
)

// Cost is the modeled hardware cost every hwstar operation reports alongside
// its real result. Result structs embed it, so callers read res.SimCycles
// uniformly across joins, aggregations, shared scans, queries, and server
// responses.
type Cost struct {
	// SimCycles is the simulated cycle cost on the operation's machine: the
	// parallel makespan for scheduled operators, the accounted total for
	// single-threaded ones, and the amortized per-query share for batched
	// server execution.
	SimCycles float64
}

// Work describes, in hardware-relevant terms, what a piece of code did. It is
// the vocabulary in which hwstar operators talk to the machine model:
// instead of "I hashed 16M tuples", an operator reports "16M tuples × 6
// compute cycles, 128 MiB streamed sequentially, 16M random reads against a
// 256 MiB working set". The machine model prices that description.
type Work struct {
	// Name labels the work item in cost breakdowns.
	Name string

	// Tuples is the number of items processed; ComputePerTuple the pure
	// ALU/branch cost per item in cycles (data already in registers/L1).
	Tuples          int64
	ComputePerTuple float64

	// SeqReadBytes and SeqWriteBytes are bytes streamed sequentially against
	// local memory. RemoteSeqBytes are bytes streamed across the socket
	// interconnect.
	SeqReadBytes   int64
	SeqWriteBytes  int64
	RemoteSeqBytes int64

	// SpillWriteBytes and SpillReadBytes are bytes streamed to and from the
	// simulated spill tier (see Machine.SpillBandwidth) when a governed
	// operator's working set exceeds its memory reservation.
	SpillWriteBytes int64
	SpillReadBytes  int64

	// RandomReads are dependent random accesses into a working set of
	// RandomWS bytes (which determines the cache level that services them).
	// RemoteRandomReads are random accesses to memory on another socket.
	RandomReads       int64
	RandomWS          int64
	RemoteRandomReads int64

	// BranchMisses counts mispredicted branches beyond what
	// ComputePerTuple already includes.
	BranchMisses int64

	// MLPBoost multiplies the machine's memory-level parallelism for this
	// work's DRAM-class random accesses. Software techniques like group
	// prefetching and AMAC restructure probe loops so more misses overlap;
	// values below 1 are treated as 1 (no boost).
	MLPBoost float64

	// IndependentAccesses marks random accesses that carry no dependence at
	// all — each is a single load whose address is known up front (e.g. one
	// blocked-Bloom-filter line per probe). The out-of-order core overlaps
	// these at every level of the hierarchy, so MLP amortization applies
	// even to cache-resident working sets. Dependent chains (hash-table
	// walks, tree descents) must leave this false.
	IndependentAccesses bool

	// HugePages marks structures allocated on large pages: their random
	// accesses use the large-page TLB reach (see Machine.HugeTLBEntries).
	HugePages bool
}

// CostBreakdown itemizes where simulated cycles went.
type CostBreakdown struct {
	Compute      float64
	Streaming    float64
	RandomAccess float64
	Branches     float64
	// Spill is the cycle cost of traffic to and from the spill tier.
	Spill float64
}

// Total returns the sum of all components.
func (c CostBreakdown) Total() float64 {
	return c.Compute + c.Streaming + c.RandomAccess + c.Branches + c.Spill
}

// String renders the breakdown for experiment logs.
func (c CostBreakdown) String() string {
	s := fmt.Sprintf("total=%.0f (compute=%.0f stream=%.0f random=%.0f branch=%.0f",
		c.Total(), c.Compute, c.Streaming, c.RandomAccess, c.Branches)
	if c.Spill > 0 {
		s += fmt.Sprintf(" spill=%.0f", c.Spill)
	}
	return s + ")"
}

// ExecContext tells the cost model under which conditions work executes:
// how many sibling cores on the same socket are active (bandwidth sharing and
// controller contention) and a latency multiplier from external interference
// (used by internal/vmsim).
type ExecContext struct {
	ActiveCoresOnSocket int
	// InterferenceFactor multiplies memory latencies and divides bandwidth;
	// 1 means an undisturbed machine. Values >1 model noisy neighbours.
	InterferenceFactor float64
}

// DefaultContext is a single active core on an otherwise idle machine.
func DefaultContext() ExecContext {
	return ExecContext{ActiveCoresOnSocket: 1, InterferenceFactor: 1}
}

func (e ExecContext) normalized() ExecContext {
	if e.ActiveCoresOnSocket < 1 {
		e.ActiveCoresOnSocket = 1
	}
	if e.InterferenceFactor < 1 {
		e.InterferenceFactor = 1
	}
	return e
}

// Cost prices a Work description on this machine under the given execution
// context, returning the itemized cycle breakdown for one core executing the
// work serially.
func (m *Machine) Cost(w Work, ctx ExecContext) CostBreakdown {
	ctx = ctx.normalized()
	var c CostBreakdown

	c.Compute = float64(w.Tuples) * w.ComputePerTuple
	c.Branches = float64(w.BranchMisses) * m.BranchMissCycles

	// Streaming: bandwidth shared among active cores, degraded by
	// interference.
	localBW := m.StreamBandwidth(ctx.ActiveCoresOnSocket) / ctx.InterferenceFactor
	seqBytes := float64(w.SeqReadBytes + w.SeqWriteBytes)
	c.Streaming = seqBytes / localBW
	if w.RemoteSeqBytes > 0 {
		remoteBW := m.RemoteStreamBandwidth(ctx.ActiveCoresOnSocket) / ctx.InterferenceFactor
		c.Streaming += float64(w.RemoteSeqBytes) / remoteBW
	}

	// Spill-tier traffic: streamed sequentially against the (much slower)
	// spill device, shared among the spilling cores and degraded by
	// interference like any other bandwidth.
	if spill := w.SpillWriteBytes + w.SpillReadBytes; spill > 0 {
		spillBW := m.SpillBandwidth(ctx.ActiveCoresOnSocket) / ctx.InterferenceFactor
		c.Spill = float64(spill) / spillBW
	}

	// Random accesses: base latency for the working set, inflated by
	// controller contention and interference, amortized by memory-level
	// parallelism when the working set is beyond the LLC (cache hits are
	// already pipelined and get no extra MLP benefit).
	boost := w.MLPBoost
	if boost < 1 {
		boost = 1
	}
	if w.RandomReads > 0 {
		lat := m.RandomLatency(w.RandomWS)
		if w.HugePages {
			lat = m.RandomLatencyHuge(w.RandomWS)
		}
		lat = m.applyMemoryPressure(lat, w.RandomWS, ctx, boost)
		if w.IndependentAccesses && w.RandomWS <= m.LLC().SizeBytes {
			// Cache-resident independent loads overlap too; DRAM-class
			// accesses were already amortized inside applyMemoryPressure.
			lat = maxF(lat/(m.MLP*boost), 1)
		}
		c.RandomAccess += float64(w.RandomReads) * lat
	}
	if w.RemoteRandomReads > 0 {
		lat := m.RemoteRandomLatency(w.RandomWS)
		lat = m.applyMemoryPressure(lat, w.RandomWS, ctx, boost)
		c.RandomAccess += float64(w.RemoteRandomReads) * lat
	}
	return c
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// applyMemoryPressure inflates a DRAM-class latency by contention and
// interference and amortizes it by achieved MLP (machine MLP times any
// software boost). Cache-resident working sets are only subject to
// interference (a polluted cache still costs more).
func (m *Machine) applyMemoryPressure(lat float64, ws int64, ctx ExecContext, mlpBoost float64) float64 {
	if ws <= m.LLC().SizeBytes {
		return lat * math.Sqrt(ctx.InterferenceFactor)
	}
	lat *= m.ContentionFactor(ctx.ActiveCoresOnSocket)
	lat *= ctx.InterferenceFactor
	return lat / (m.MLP * mlpBoost)
}

// Cycles is shorthand for Cost(w, ctx).Total().
func (m *Machine) Cycles(w Work, ctx ExecContext) float64 {
	return m.Cost(w, ctx).Total()
}

// Account accumulates priced cycles over the phases of an operator, as a
// total and an itemized breakdown.
type Account struct {
	machine *Machine
	ctx     ExecContext
	total   CostBreakdown
}

// NewAccount creates an account that prices work on m under ctx.
func NewAccount(m *Machine, ctx ExecContext) *Account {
	a := &Account{}
	a.Reset(m, ctx)
	return a
}

// Reset empties the account and re-targets it to price work on m under ctx,
// so an Account held by value (the scheduler's pooled workers) is reused
// without allocating.
func (a *Account) Reset(m *Machine, ctx ExecContext) {
	*a = Account{machine: m, ctx: ctx.normalized()}
}

// Charge prices w and adds it to the account, returning the cycles charged.
func (a *Account) Charge(w Work) float64 {
	c := a.machine.Cost(w, a.ctx)
	a.total.Compute += c.Compute
	a.total.Streaming += c.Streaming
	a.total.RandomAccess += c.RandomAccess
	a.total.Branches += c.Branches
	a.total.Spill += c.Spill
	return c.Total()
}

// TotalCycles returns all cycles charged so far.
func (a *Account) TotalCycles() float64 { return a.total.Total() }

// Breakdown returns the accumulated itemized cost.
func (a *Account) Breakdown() CostBreakdown { return a.total }
