// Compressed-column entry points: one block of a FOR/RLE-encoded column
// (internal/compress) through the same kernel the server's scan pass runs.
// compress.Match classifies the block by its zone map; a miss reads nothing
// past the header, a full match sums from the header (BlockSum), and only a
// straddling block decodes (DecodeBlock) into a caller-provided L1-resident
// buffer for RangeFilterI64 and SumI64. The scanned flags say whether a
// block's payload was read, the scan pass's pruned / fast-summed / scanned
// outcome for a batch of one query.

package vecexec

import "hwstar/internal/compress"

// RangeFilterCompressed appends to out the in-block row indices of block
// blk of col whose value lies in [lo, hi]. all=true short-circuits a
// whole-block match (nothing appended); scanned reports whether the block
// payload was read. When all is false the returned Sel is non-nil, per the
// Sel contract. buf must hold at least compress.BlockValues values.
func RangeFilterCompressed(col *compress.Compressed, blk int, lo, hi int64, buf []int64, out Sel) (sel Sel, all, scanned bool) {
	switch col.Match(blk, lo, hi) {
	case compress.MatchNone:
		return notNil(out), false, false
	case compress.MatchAll:
		return out, true, false
	}
	return RangeFilterI64(col.DecodeBlock(blk, buf), lo, hi, nil, out), false, true
}

// SumCompressed sums block blk of col over sel. A nil sel is a full match
// and sums from the header; an empty one is 0. Neither reads the payload;
// any other sel decodes the block into buf and gathers. scanned reports
// whether the payload was read.
func SumCompressed(col *compress.Compressed, blk int, sel Sel, buf []int64) (sum int64, scanned bool) {
	switch {
	case sel == nil:
		return col.BlockSum(blk), false
	case len(sel) == 0:
		return 0, false
	}
	return SumI64(col.DecodeBlock(blk, buf), sel), true
}
