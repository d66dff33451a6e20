package join

import (
	"strconv"

	"hwstar/internal/hashtab"
	"hwstar/internal/hw"
)

// RadixOptions tunes the radix-partitioned hash join. The zero value asks
// for automatic tuning against the machine profile (partitions sized to fit
// the L2 cache, pass structure bounded by TLB reach).
type RadixOptions struct {
	// TotalBits is the number of radix bits (fan-out = 2^TotalBits). 0
	// means: choose so each build partition fits in half the L2 cache.
	TotalBits int
	// MaxBitsPerPass bounds the fan-out of a single partitioning pass; the
	// classic rule caps it near log2(TLB entries) so every output cursor
	// stays TLB-resident. 0 means: derive from the machine profile.
	MaxBitsPerPass int
	// SWBuffers enables software-managed buffers: partition outputs are
	// staged through cache-line-sized buffers, so a single pass can use a
	// large fan-out without TLB thrashing (at a small copy cost).
	SWBuffers bool
}

// resolve fills in automatic parameters from the machine profile. m may be
// nil, in which case conservative defaults are used.
func (o RadixOptions) resolve(m *hw.Machine, buildRows int) RadixOptions {
	if o.MaxBitsPerPass <= 0 {
		entries := 64
		if m != nil {
			entries = m.TLBEntries
		}
		o.MaxBitsPerPass = log2floor(entries)
		if o.MaxBitsPerPass < 1 {
			o.MaxBitsPerPass = 1
		}
	}
	if o.TotalBits <= 0 {
		target := int64(128 << 10) // half of a typical 256 KiB L2
		if m != nil && len(m.Caches) >= 2 {
			target = m.Caches[1].SizeBytes / 2
		}
		// Size by the per-partition hash-table footprint (~2 slots of 17
		// bytes per tuple at 50% fill), not by raw tuple bytes: the table is
		// what the probe phase's random accesses must keep cache-resident.
		const htBytesPerTuple = 2 * (8 + 8 + 1)
		bits := 0
		for int64(buildRows)*htBytesPerTuple>>uint(bits) > target {
			bits++
		}
		o.TotalBits = bits
	}
	if o.TotalBits > 24 {
		o.TotalBits = 24
	}
	return o
}

func log2floor(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// partitioned holds one relation scattered into 2^bits partitions.
type partitioned struct {
	keys, vals []int64
	// offsets[p] is the start of partition p in keys/vals; offsets has
	// fanout+1 entries.
	offsets []int
}

func (p *partitioned) partition(i int) (keys, vals []int64) {
	return p.keys[p.offsets[i]:p.offsets[i+1]], p.vals[p.offsets[i]:p.offsets[i+1]]
}

// radixPartition scatters (keys, vals) into 2^bits partitions by hash bits
// starting at bit `shift`. It is the real data movement: histogram, prefix
// sum, scatter.
func radixPartition(keys, vals []int64, bits, shift int) partitioned {
	fanout := 1 << bits
	mask := uint64(fanout - 1)
	hist := make([]int, fanout)
	for _, k := range keys {
		hist[(hashtab.Hash(k)>>shift)&mask]++
	}
	offsets := make([]int, fanout+1)
	for i := 0; i < fanout; i++ {
		offsets[i+1] = offsets[i] + hist[i]
	}
	out := partitioned{
		keys:    make([]int64, len(keys)),
		vals:    make([]int64, len(vals)),
		offsets: offsets,
	}
	cursor := make([]int, fanout)
	copy(cursor, offsets[:fanout])
	for i, k := range keys {
		p := (hashtab.Hash(k) >> shift) & mask
		out.keys[cursor[p]] = k
		out.vals[cursor[p]] = vals[i]
		cursor[p]++
	}
	return out
}

// partitionPassWork describes one partitioning pass of n tuples with the
// given fan-out to the machine model. Without software-managed buffers a
// fan-out beyond the TLB reach turns every scattered write into a TLB-missing
// random access; with them (or with a small fan-out) the pass streams.
func partitionPassWork(name string, n int64, fanout int, m *hw.Machine, sw bool) hw.Work {
	w := hw.Work{
		Name:            name,
		Tuples:          n,
		ComputePerTuple: 4, // hash + histogram/cursor arithmetic
		SeqReadBytes:    n * tupleBytes,
	}
	tlbOK := m == nil || fanout <= m.TLBEntries
	switch {
	case tlbOK:
		w.SeqWriteBytes = n * tupleBytes
	case sw:
		// Buffered scatter: copy into the line-sized buffer (extra compute),
		// flush full lines sequentially.
		w.SeqWriteBytes = 2 * n * tupleBytes
		w.ComputePerTuple += 2
	default:
		// Unbuffered wide scatter: every write lands on a different page.
		w.RandomReads = n
		w.RandomWS = n * tupleBytes
	}
	return w
}

// joinPartition joins one partition pair through a table of the build
// side's size, folding matches into res, and returns the table's footprint.
func joinPartition(bk, bv, pk, pv []int64, res *Result) int64 {
	ht := hashtab.Get(len(bk))
	defer hashtab.Put(ht)
	for i, k := range bk {
		ht.Insert(k, bv[i])
	}
	for i, k := range pk {
		val := pv[i]
		ht.ProbeEach(k, func(bval int64) { res.add(bval, val) })
	}
	return ht.Bytes()
}

// Radix executes the radix-partitioned hash join: both relations are
// partitioned by key hash until each build partition fits in cache, then
// partitions are joined pairwise with cache-resident hash tables. This is
// the "hardware-conscious" contender: it spends extra sequential passes to
// convert DRAM-latency random accesses into cache-resident ones.
//
// machine tunes partitioning (and is used for cost accounting via acct);
// pass nil for defaults without accounting.
func Radix(in Input, opts RadixOptions, machine *hw.Machine, acct *hw.Account) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if len(in.BuildKeys) == 0 {
		return Result{}, nil
	}
	opts = opts.resolve(machine, len(in.BuildKeys))

	// Plan the pass structure.
	passes := planPasses(opts)

	var res Result
	build := partitioned{keys: in.BuildKeys, vals: in.BuildVals, offsets: []int{0, len(in.BuildKeys)}}
	probe := partitioned{keys: in.ProbeKeys, vals: in.ProbeVals, offsets: []int{0, len(in.ProbeKeys)}}

	// Execute passes over each current partition (recursively refining).
	shift := 0
	for pi, bits := range passes {
		build = repartition(build, bits, shift)
		probe = repartition(probe, bits, shift)
		if acct != nil {
			fanout := 1 << bits
			acct.Charge(partitionPassWork("radix-pass"+strconv.Itoa(pi+1)+"-build",
				int64(len(build.keys)), fanout, machine, opts.SWBuffers))
			acct.Charge(partitionPassWork("radix-pass"+strconv.Itoa(pi+1)+"-probe",
				int64(len(probe.keys)), fanout, machine, opts.SWBuffers))
		}
		shift += bits
	}

	// Join partition pairs with cache-resident tables.
	nparts := len(build.offsets) - 1
	var maxPartBytes int64
	for p := 0; p < nparts; p++ {
		bk, bv := build.partition(p)
		pk, pv := probe.partition(p)
		if len(bk) == 0 || len(pk) == 0 {
			continue
		}
		if b := joinPartition(bk, bv, pk, pv, &res); b > maxPartBytes {
			maxPartBytes = b
		}
	}
	if acct != nil {
		// All per-partition tables are (by construction) small; their
		// random accesses hit the cache level that fits the largest one.
		acct.Charge(hw.Work{
			Name:            "radix-join-build",
			Tuples:          int64(len(build.keys)),
			ComputePerTuple: 6,
			SeqReadBytes:    int64(len(build.keys)) * tupleBytes,
			RandomReads:     int64(len(build.keys)),
			RandomWS:        maxPartBytes,
		})
		acct.Charge(hw.Work{
			Name:            "radix-join-probe",
			Tuples:          int64(len(probe.keys)),
			ComputePerTuple: 6,
			SeqReadBytes:    int64(len(probe.keys)) * tupleBytes,
			RandomReads:     int64(len(probe.keys)),
			RandomWS:        maxPartBytes,
		})
		res.SimCycles = acct.TotalCycles()
	}
	return res, nil
}

// planPasses splits TotalBits into per-pass bit counts. SWBuffers permit the
// whole fan-out in one pass; otherwise each pass is capped by
// MaxBitsPerPass.
func planPasses(opts RadixOptions) []int {
	if opts.TotalBits == 0 {
		return nil
	}
	if opts.SWBuffers {
		return []int{opts.TotalBits}
	}
	var passes []int
	left := opts.TotalBits
	for left > 0 {
		b := opts.MaxBitsPerPass
		if b > left {
			b = left
		}
		passes = append(passes, b)
		left -= b
	}
	return passes
}

// repartition applies one partitioning pass to every existing partition,
// refining the partition structure by `bits` more bits at `shift`.
func repartition(p partitioned, bits, shift int) partitioned {
	fanoutOld := len(p.offsets) - 1
	fanoutNew := fanoutOld << bits
	out := partitioned{
		keys:    make([]int64, len(p.keys)),
		vals:    make([]int64, len(p.vals)),
		offsets: make([]int, fanoutNew+1),
	}
	// First pass: histogram per refined partition.
	mask := uint64((1 << bits) - 1)
	hist := make([]int, fanoutNew)
	for old := 0; old < fanoutOld; old++ {
		keys, _ := p.partition(old)
		baseNew := old << bits
		for _, k := range keys {
			hist[baseNew+int((hashtab.Hash(k)>>shift)&mask)]++
		}
	}
	for i := 0; i < fanoutNew; i++ {
		out.offsets[i+1] = out.offsets[i] + hist[i]
	}
	cursor := make([]int, fanoutNew)
	copy(cursor, out.offsets[:fanoutNew])
	for old := 0; old < fanoutOld; old++ {
		keys, vals := p.partition(old)
		baseNew := old << bits
		for i, k := range keys {
			dst := baseNew + int((hashtab.Hash(k)>>shift)&mask)
			out.keys[cursor[dst]] = k
			out.vals[cursor[dst]] = vals[i]
			cursor[dst]++
		}
	}
	return out
}
