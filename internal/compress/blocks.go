// Block-level access to a compressed column: the zone-map classifier, the
// header sum and the block decode. A scan over FOR/RLE blocks is these three
// calls composed with vecexec's filter and gather (vecexec.RangeFilterCompressed
// and the server's scan pass): a miss costs the header, a full match sums
// from it, and only a straddling block decodes.

package compress

// NumBlocks returns the number of encoded blocks.
func (c *Compressed) NumBlocks() int { return len(c.hdr) / hdrWords }

// BlockStart returns the row offset of block i within the column.
func (c *Compressed) BlockStart(i int) int { return i * BlockValues }

// BlockLen returns the number of values in block i (BlockValues except for
// a short final block).
func (c *Compressed) BlockLen(i int) int { return int(c.block(i).n) }

// BlockBytes returns the encoded footprint of block i, header included —
// the memory traffic a scan of the block costs under the hw model.
func (c *Compressed) BlockBytes(i int) int64 {
	return BlockHeaderBytes + int64(c.block(i).words)*8
}

// BlockRange returns the exact min and max value in block i — the zone map
// stored at encode time. Match is the predicate test over it.
func (c *Compressed) BlockRange(i int) (minV, maxV int64) {
	h := c.head(i)
	return int64(h[hMin]), int64(h[hMax])
}

// BlockSum returns the wrapping sum of block i's values, stored at encode
// time: a zone-map full match aggregates the block without its payload.
func (c *Compressed) BlockSum(i int) int64 { return int64(c.head(i)[hSum]) }

// DecodeBlock expands block i into buf (len(buf) >= BlockLen(i)) and
// returns the decoded values.
func (c *Compressed) DecodeBlock(i int, buf []int64) []int64 {
	return c.decodeBlock(c.block(i), buf)
}

// BlockMatch is how a block's zone map relates to a range predicate.
type BlockMatch uint8

const (
	MatchNone BlockMatch = iota // no value lies in the range: the block is pruned
	MatchAll                    // every value does: BlockSum answers from the header
	MatchSome                   // the range straddles the block: decode and filter
)

// Match classifies block i against [lo, hi] by its exact zone map: MatchRange
// over the block's stored min and max.
func (c *Compressed) Match(i int, lo, hi int64) BlockMatch {
	h := c.head(i)
	return MatchRange(int64(h[hMin]), int64(h[hMax]), lo, hi)
}

// MatchRange is the one zone-map rule: how values spanning exactly
// [minV, maxV] relate to the predicate range [lo, hi]. Every scan of a
// compressed column applies it per block, and the shard router per stripe.
// Being exact, it cannot overflow near the ends of the int64 domain the way
// a maximum derived from the FOR width would. An empty range (lo > hi) is
// MatchNone or MatchSome, never MatchAll.
func MatchRange(minV, maxV, lo, hi int64) BlockMatch {
	switch {
	case minV > hi || maxV < lo:
		return MatchNone
	case minV >= lo && maxV <= hi:
		return MatchAll
	}
	return MatchSome
}
