// The server's one scan path: shared scan batches execute batch-at-a-time
// over selection vectors directly on FOR/RLE-compressed columns,
// decode-on-demand priced through the hw model (the E12
// compute-for-bandwidth trade, in the production path). Per block and
// query the pass consults the stored zone map first — a miss skips the
// block for the price of its header, a full match folds in a
// precomputed block sum without touching the payload — and only
// range-straddling blocks decode into an L1-resident buffer for the
// vectorized filter + gather. The row-at-a-time clock scan lives in
// internal/scan as the reference that tests and E25 compare against.

package serve

import (
	"context"
	"strconv"

	"hwstar/internal/compress"
	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/scan"
	"hwstar/internal/sched"
	"hwstar/internal/table"
	"hwstar/internal/trace"
	"hwstar/internal/vecexec"
)

// vecMorselRows is the rows one morsel task covers, a whole number of
// compression blocks so a morsel never splits a block. vecBatchWidth is the
// number of per-query accumulators the cost model keeps live against a
// decoded block: the gather's randomly-addressed working set.
const (
	vecMorselRows = 8 * compress.BlockValues
	vecBatchWidth = 8
)

// vecDispatchCycles is the modeled fixed overhead of one morsel task:
// dispatch, queue handoff, cache warmup (E2b's dispatchCycles).
const vecDispatchCycles = 2000

// zoneCheckCycles and fastSumCycles price the per-(block, query) zone-map
// comparison and the precomputed-sum fold; a decoded value costs
// compress.DecodeCycles, the compressed ScanWork's price.
const (
	zoneCheckCycles = 1.0
	fastSumCycles   = 2.0
)

// vecTable is a registered relation as the server holds it: every column a
// FOR/RLE block stream whose headers carry the zone map and the block sum,
// so a zone-map full match aggregates a block in O(1) without decoding it.
type vecTable struct {
	t    *table.Table
	cols []*compress.Compressed
	rows int
	// lease owns the columns' payload when Register encoded them (nil for
	// RegisterEncoded's and the store's tables). Each holder of vt holds a
	// reference: the server's table map, each lookup's caller, and the
	// store's entry and checkpoint jobs.
	lease *mem.Lease
}

// newVecTable views t as a scan relation. It reports false when t is not
// scan-shaped: no columns, or a column that is not an int64 block stream.
func newVecTable(t *table.Table) (*vecTable, bool) {
	vt := &vecTable{t: t, cols: make([]*compress.Compressed, t.Schema().NumColumns()), rows: t.NumRows()}
	for i := range vt.cols {
		c, ok := t.Column(i).(*compress.Compressed)
		if !ok {
			return nil, false
		}
		vt.cols[i] = c
	}
	return vt, len(vt.cols) > 0
}

// ratio returns the table-wide compression ratio (raw/compressed bytes).
func (vt *vecTable) ratio() float64 {
	var raw, comp int64
	for _, c := range vt.cols {
		raw += c.RawBytes()
		comp += c.Bytes()
	}
	if comp == 0 {
		return 1
	}
	return float64(raw) / float64(comp)
}

// vecPass is one shared pass's state: the batch, one accumulator row of
// per-query sums, one scratch row the running morsel fills, and the block
// outcome counts. Task bodies run one at a time on the goroutine that called
// RunMorsels (the sched package contract), so morsels update it without
// synchronisation. acc and row are carved from buf, which a pooled batch
// keeps from pass to pass.
type vecPass struct {
	vt      *vecTable
	queries []scan.Query
	acc     []int64
	row     []int64
	buf     []int64

	pruned   int64 // zone map missed the predicate: header-only
	fastSums int64 // zone map proved a full match: O(1) fold
	scanned  int64 // payload decoded and filtered
}

// morsel is the pass's task body. It clears the scratch row on entry and
// folds it into the pass as its last statement, so a morsel that panics
// part-way and re-runs under IsolatePanics has folded nothing: each morsel
// counts exactly once.
func (p *vecPass) morsel(start, end int, w *sched.Worker) {
	clear(p.row)
	pruned, fastSums, scanned := vecScanMorsel(p.vt, p.queries, start, end, w, p.row)
	p.pruned += pruned
	p.fastSums += fastSums
	p.scanned += scanned
	for i, v := range p.row {
		p.acc[i] += v
	}
}

// vecSharedScan runs the query batch against vt, sharing the pass
// Crescando-style but block-at-a-time on the compressed form: rows are
// split into block-aligned morsels, and each morsel task streams its blocks
// once for the WHOLE batch — a straddling block is decoded at most once per
// pass and every query evaluates it while it is cache-hot. Results are
// exact — identical to scan.Shared. The pass runs on p, whose accumulator
// and scratch row are reused when p's buffer is large enough, so a warm pass
// allocates neither; the sums returned are p's, valid until p runs again.
func (s *Server) vecSharedScan(ctx context.Context, p *vecPass, vt *vecTable, queries []scan.Query, sch *sched.Scheduler) ([]int64, sched.Result, error) {
	n := len(queries)
	if cap(p.buf) < 2*n {
		p.buf = make([]int64, 2*n)
	}
	sums := p.buf[:2*n]
	clear(sums)
	*p = vecPass{vt: vt, queries: queries, acc: sums[:n:n], row: sums[n:], buf: p.buf}
	if n == 0 || vt.rows == 0 {
		return p.acc, sched.Result{}, nil
	}

	ps := trace.FromContext(ctx).Child("vec-scan")
	ps.SetAttr("queries", strconv.Itoa(n))
	schedRes, err := sch.RunMorsels(trace.NewContext(ctx, ps), vt.rows, vecMorselRows, compress.BlockValues, "vec-scan", p.morsel)
	ps.AddCycles(schedRes.MakespanCycles)
	ps.End()

	s.reg.Counter("serve.vec_blocks_pruned").Add(p.pruned)
	s.reg.Counter("serve.vec_block_fast_sums").Add(p.fastSums)
	s.reg.Counter("serve.vec_blocks_scanned").Add(p.scanned)
	if err != nil {
		return nil, schedRes, err
	}
	s.reg.Counter("serve.vec_passes").Inc()
	return p.acc, schedRes, nil
}

// vecScanMorsel evaluates the whole query batch over one block-aligned
// morsel, adding per-query partial sums into out and returning the block
// outcome counts. The loop is block-major: each block's zone map is
// consulted for every query, and a block that any query straddles is decoded
// at most once per column for the entire batch — every straddling query
// filters it while it is L1-resident. The inner loop is
// allocation-free: the decode buffers and selection vector live on the stack
// and are reused across blocks, and all hardware cost is accumulated into
// one Work charged at morsel end.
func vecScanMorsel(vt *vecTable, queries []scan.Query, start, end int, w *sched.Worker, out []int64) (pruned, fastSums, scannedBlocks int64) {
	var fbuf, abuf [compress.BlockValues]int64
	sel := make(vecexec.Sel, 0, compress.BlockValues)

	var zoneChecks, decodedTuples, evalTuples, gatherTuples int64
	var hdrBytes, payloadBytes int64

	firstBlk := start / compress.BlockValues
	nBlocks := vt.cols[0].NumBlocks()
	for blk := firstBlk; blk < nBlocks && vt.cols[0].BlockStart(blk) < end; blk++ {
		hdrBytes += compress.BlockHeaderBytes
		fCached, aCached := -1, -1
		blockScanned := false
		for qi := range queries {
			q := &queries[qi]
			fcol := vt.cols[q.FilterCol]
			zoneChecks++
			switch fcol.Match(blk, q.Lo, q.Hi) {
			case compress.MatchNone:
				pruned++
				continue
			case compress.MatchAll:
				out[qi] += vt.cols[q.AggCol].BlockSum(blk)
				fastSums++
				continue
			}
			// Range straddles the block: decode on demand, once per
			// block per column for the whole batch.
			n := fcol.BlockLen(blk)
			if fCached != q.FilterCol {
				fcol.DecodeBlock(blk, fbuf[:])
				fCached = q.FilterCol
				payloadBytes += fcol.BlockBytes(blk)
				decodedTuples += int64(n)
			}
			sel = vecexec.RangeFilterI64(fbuf[:n], q.Lo, q.Hi, nil, sel[:0])
			evalTuples += int64(n)
			blockScanned = true
			if len(sel) == 0 {
				continue
			}
			// A query aggregating its filter column sums the block it
			// just filtered.
			vals := fbuf[:n]
			if q.AggCol != q.FilterCol {
				acol := vt.cols[q.AggCol]
				if aCached != q.AggCol {
					acol.DecodeBlock(blk, abuf[:])
					aCached = q.AggCol
					payloadBytes += acol.BlockBytes(blk)
					decodedTuples += int64(n)
				}
				vals = abuf[:n]
			}
			out[qi] += vecexec.SumI64(vals, sel)
			gatherTuples += int64(len(sel))
		}
		if blockScanned {
			scannedBlocks++
		}
	}

	// One charge per morsel: the compressed bytes actually streamed, the
	// decode and primitive compute, and the gather's randomly-addressed
	// accumulator traffic over vecBatchWidth cache lines.
	w.Charge(hw.Work{
		Name:   "vec-scan",
		Tuples: 1,
		ComputePerTuple: float64(zoneChecks)*zoneCheckCycles +
			float64(fastSums)*fastSumCycles +
			float64(decodedTuples)*compress.DecodeCycles +
			float64(evalTuples+gatherTuples)*vecexec.VecTupleCycles,
		SeqReadBytes: hdrBytes + payloadBytes,
		RandomReads:  gatherTuples,
		RandomWS:     vecBatchWidth * 64,
	})
	w.AdvanceCycles(vecDispatchCycles)
	return pruned, fastSums, scannedBlocks
}
