// Compressed-column entry points: the chunked operators' bridge onto
// FOR/RLE-encoded columns (internal/compress). Filters and aggregates run
// block-at-a-time directly on the encoded form — zone maps prune or
// whole-match blocks without touching the payload, RLE runs select by
// arithmetic, and FOR blocks decode on demand into a caller-provided
// L1-resident buffer. The scanned flags feed the hw cost model: only
// blocks whose payload was actually read charge their compressed bytes.

package vecexec

import "hwstar/internal/compress"

// RangeFilterCompressed appends to out the in-block row indices of block
// blk of col whose value lies in [lo, hi]. all=true short-circuits a
// whole-block match (nothing appended); scanned reports whether the block
// payload was read. When all is false the returned Sel is non-nil, per the
// Sel contract. buf must hold at least compress.BlockValues values.
func RangeFilterCompressed(col *compress.Compressed, blk int, lo, hi int64, buf []int64, out Sel) (sel Sel, all, scanned bool) {
	return col.RangeSelectBlock(blk, lo, hi, buf, out)
}

// SumCompressed sums block blk of col over sel — nil sel sums the whole
// block (RLE blocks by run arithmetic, constant FOR blocks by
// multiplication, neither touching buf). scanned reports whether the
// payload was read.
func SumCompressed(col *compress.Compressed, blk int, sel Sel, buf []int64) (sum int64, scanned bool) {
	return col.SumBlockSel(blk, sel, buf)
}
