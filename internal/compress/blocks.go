// Block-level access to a compressed column: the entry points the
// vectorized execution path uses to scan FOR/RLE blocks in place —
// zone-map pruning, selection-vector filtering, and selective aggregation
// with decode-on-demand, block-at-a-time in cache.

package compress

// NumBlocks returns the number of encoded blocks.
func (c *Compressed) NumBlocks() int { return len(c.blocks) }

// BlockStart returns the row offset of block i within the column.
func (c *Compressed) BlockStart(i int) int { return i * BlockValues }

// BlockLen returns the number of values in block i (BlockValues except for
// a short final block).
func (c *Compressed) BlockLen(i int) int { return int(c.blocks[i].n) }

// BlockBytes returns the encoded footprint of block i, header included —
// the memory traffic a scan of the block costs under the hw model.
func (c *Compressed) BlockBytes(i int) int64 {
	return BlockHeaderBytes + int64(c.blocks[i].words)*8
}

// BlockRange returns the exact min and max value in block i — the zone map
// stored at encode time.
func (c *Compressed) BlockRange(i int) (minV, maxV int64) {
	b := &c.blocks[i]
	return b.minV, b.maxV
}

// BlockSum returns the wrapping sum of block i's values, stored at encode
// time: a zone-map full match aggregates the block without its payload.
func (c *Compressed) BlockSum(i int) int64 { return c.blocks[i].sum }

// DecodeBlock expands block i into buf (len(buf) >= BlockLen(i)) and
// returns the decoded values.
func (c *Compressed) DecodeBlock(i int, buf []int64) []int64 {
	return c.decodeBlock(&c.blocks[i], buf)
}

// RangeSelectBlock appends to out the in-block row indices of block i whose
// value lies in [lo, hi]. The returned all flag short-circuits full-block
// matches: when true, every row qualifies and nothing was appended, so the
// caller can aggregate the whole block (see SumBlockSel with a nil sel)
// without materializing BlockLen indices. scanned reports whether the
// block's payload was read: false when the zone map pruned the block or
// proved a full match (header-only traffic), true otherwise.
//
// RLE blocks select by run arithmetic — qualifying runs contribute their
// index ranges directly, no decode. FOR blocks decode into buf first.
//
// Whenever all is false the returned sel is non-nil even if empty: a nil
// selection vector means "all rows" to downstream primitives (see
// vecexec.Sel), so a filtered-to-zero block must stay distinguishable.
func (c *Compressed) RangeSelectBlock(i int, lo, hi int64, buf []int64, out []int32) (sel []int32, all, scanned bool) {
	b := &c.blocks[i]
	if b.minV > hi || b.maxV < lo {
		return notNil(out), false, false
	}
	if b.minV >= lo && b.maxV <= hi {
		return out, true, false
	}
	if b.kind == kindRLE {
		pos := int32(0)
		runs := c.words(b)
		for r := 0; r < len(runs); r += 2 {
			v, runLen := int64(runs[r]), int32(runs[r+1])
			if v >= lo && v <= hi {
				for k := int32(0); k < runLen; k++ {
					out = append(out, pos+k)
				}
			}
			pos += runLen
		}
		return notNil(out), false, true
	}
	for j, v := range c.decodeBlock(b, buf) {
		if v >= lo && v <= hi {
			out = append(out, int32(j))
		}
	}
	return notNil(out), false, true
}

// notNil turns a nil selection vector into an empty non-nil one without
// allocating, preserving the "nil means all rows" convention for callers
// that seeded out with nil.
func notNil(sel []int32) []int32 {
	if sel == nil {
		return []int32{}
	}
	return sel
}

// SumBlockSel sums the values of block i at the in-block indices in sel; a
// nil sel sums the whole block. scanned reports whether the payload was
// read — false only for the constant-block whole-sum fast path, which
// needs nothing beyond the header. Whole-block RLE sums use run
// arithmetic; selective sums decode into buf and gather.
func (c *Compressed) SumBlockSel(i int, sel []int32, buf []int64) (sum int64, scanned bool) {
	b := &c.blocks[i]
	if sel == nil {
		if b.kind == kindRLE {
			runs := c.words(b)
			for r := 0; r < len(runs); r += 2 {
				sum += int64(runs[r]) * int64(runs[r+1])
			}
			return sum, true
		}
		if b.width == 0 {
			return b.minV * int64(b.n), false
		}
		for _, v := range c.decodeBlock(b, buf) {
			sum += v
		}
		return sum, true
	}
	if len(sel) == 0 {
		return 0, false
	}
	if b.kind == kindFOR && b.width == 0 {
		return b.minV * int64(len(sel)), false
	}
	vals := c.decodeBlock(b, buf)
	for _, j := range sel {
		sum += vals[j]
	}
	return sum, true
}
