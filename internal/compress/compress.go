// Package compress implements the lightweight column codecs main-memory
// engines use to trade (abundant) compute for (scarce) memory bandwidth —
// the keynote's bandwidth-wall theme in executable form: frame-of-reference
// bit-packing and run-length encoding, block-organized so scans decode
// block-at-a-time in cache and never materialize the full column.
package compress

import (
	"math/bits"

	"hwstar/internal/hw"
	"hwstar/internal/mem"
	"hwstar/internal/table"
)

// BlockValues is the number of values per compression block. Blocks decode
// into an 8 KiB stack-friendly buffer, well inside L1.
const BlockValues = 1024

// blockKind discriminates the per-block encoding.
type blockKind uint8

const (
	kindFOR blockKind = iota // frame-of-reference + bit-packing
	kindRLE                  // run-length encoding
)

// BlockHeaderBytes is the modelled encoded footprint of a block's metadata
// (kind, count, reference/width bookkeeping, zone map). A zone-map-pruned
// block costs only this many bytes of memory traffic.
const BlockHeaderBytes = 16

// block is the header of one encoded block of up to BlockValues values; its
// payload is Compressed.payload[off : off+words]. A column stores it as
// hdrWords words (see Compressed.block).
type block struct {
	// Zone map: the exact min/max of the block's values, stored at encode
	// time so range predicates can prune (or accept) whole blocks without
	// decoding and without overflow-prone width arithmetic. minV is also
	// the FOR reference value.
	minV, maxV int64
	// sum is the wrapping sum of the block's values: a zone-map full match
	// aggregates the block from its header.
	sum int64
	off int
	// words is the payload length: packed words for FOR (none when width is
	// 0, a constant block), alternating value/run-length pairs for RLE.
	words uint32
	n     uint16 // values in the block
	kind  blockKind
	width uint8 // FOR bit width; 0 for RLE
}

// A block header is hdrWords words of Compressed.hdr: min, max, sum, the
// payload offset, and one word packing words (bits 0-31), n (32-47), width
// (48-55) and kind (56-63). Plain words let a leased column take its
// headers from the same pool as its payload.
const (
	hMin = iota
	hMax
	hSum
	hOff
	hMeta
	hdrWords
)

// Compressed is an encoded int64 column: one header per block and one
// payload slab they all index into. It is immutable once built, so any
// number of tables, replicas and in-flight scans may share it.
type Compressed struct {
	hdr     []uint64 // hdrWords per block
	payload []uint64
	n       int
}

// head returns block i's header words.
func (c *Compressed) head(i int) []uint64 {
	return c.hdr[i*hdrWords : (i+1)*hdrWords : (i+1)*hdrWords]
}

// block returns block i's header.
func (c *Compressed) block(i int) block {
	h := c.head(i)
	m := h[hMeta]
	return block{
		minV: int64(h[hMin]), maxV: int64(h[hMax]), sum: int64(h[hSum]), off: int(h[hOff]),
		words: uint32(m), n: uint16(m >> 32), width: uint8(m >> 48), kind: blockKind(m >> 56),
	}
}

// setBlock writes b as block i's header, every word of it.
func (c *Compressed) setBlock(i int, b block) {
	h := c.head(i)
	h[hMin], h[hMax], h[hSum], h[hOff] = uint64(b.minV), uint64(b.maxV), uint64(b.sum), uint64(b.off)
	h[hMeta] = uint64(b.words) | uint64(b.n)<<32 | uint64(b.width)<<48 | uint64(b.kind)<<56
}

// Encode compresses values, choosing FOR or RLE per block, whichever is
// smaller. The choice needs only the block's value span and run count, so a
// first pass sizes every block and a second packs each block's winning
// encoding straight into a payload slab allocated once at its final size.
func Encode(values []int64) *Compressed { return EncodeLeased(values, nil) }

// EncodeLeased is Encode with the block headers and the payload slab taken
// from l, so both live until l's last Release. Recycled words need no
// clearing: setBlock writes every header word and the packers every payload
// word.
func EncodeLeased(values []int64, l *mem.Lease) *Compressed {
	nb := (len(values) + BlockValues - 1) / BlockValues
	c := &Compressed{n: len(values), hdr: l.Words(nb * hdrWords)}
	total := 0
	for i := range nb {
		b := measureBlock(blockOf(values, i))
		b.off = total
		total += int(b.words)
		c.setBlock(i, b)
	}
	c.payload = l.Words(total)
	for i := range nb {
		switch b := c.block(i); {
		case b.kind == kindRLE:
			packRLE(c.words(b), blockOf(values, i))
		case b.width > 0:
			packFOR(c.words(b), blockOf(values, i), b.minV, uint(b.width))
		}
	}
	return c
}

// blockOf returns the values of block i.
func blockOf(values []int64, i int) []int64 {
	end := (i + 1) * BlockValues
	if end > len(values) {
		end = len(values)
	}
	return values[i*BlockValues : end]
}

// forWords returns the packed payload length of n values at the given width.
func forWords(n int, width uint8) int { return (n*int(width) + 63) / 64 }

// measureBlock takes the zone map, sum and run count of vals in one pass and
// picks the smaller encoding: RLE stores two words per run, FOR
// forWords(n, width), and the headers are the same size.
func measureBlock(vals []int64) block {
	minV, maxV, prev := vals[0], vals[0], vals[0]
	var sum int64
	runs := 1
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if v != prev {
			runs++
			prev = v
		}
		sum += v
	}
	b := block{minV: minV, maxV: maxV, sum: sum, n: uint16(len(vals))}
	b.width = uint8(bits.Len64(uint64(maxV - minV)))
	if fw := forWords(len(vals), b.width); 2*runs < fw {
		b.kind, b.width, b.words = kindRLE, 0, uint32(2*runs)
	} else {
		b.words = uint32(fw)
	}
	return b
}

// packFOR bit-packs vals-ref at the given width into dst, little-endian
// within and across words.
func packFOR(dst []uint64, vals []int64, ref int64, width uint) {
	var acc uint64
	var fill uint // bits of acc in use
	w := 0
	for _, v := range vals {
		delta := uint64(v - ref)
		acc |= delta << fill
		fill += width
		if fill >= 64 {
			dst[w] = acc
			w++
			fill -= 64
			acc = delta >> (width - fill) // the bits that did not fit; 0 when fill is 0
		}
	}
	if fill > 0 {
		dst[w] = acc
	}
}

// packRLE writes vals as alternating value/run-length words.
func packRLE(dst []uint64, vals []int64) {
	w := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst[w], dst[w+1] = uint64(vals[i]), uint64(j-i)
		w += 2
		i = j
	}
}

// Len returns the number of encoded values.
func (c *Compressed) Len() int { return c.n }

// Bytes returns the compressed footprint: a modelled header per block plus
// the payload.
func (c *Compressed) Bytes() int64 {
	return int64(c.NumBlocks())*BlockHeaderBytes + int64(len(c.payload))*8
}

// RawBytes returns the uncompressed footprint.
func (c *Compressed) RawBytes() int64 { return int64(c.n) * 8 }

// Ratio returns raw/compressed size (higher is better), or 1 for an empty
// column.
func (c *Compressed) Ratio() float64 {
	cb := c.Bytes()
	if cb == 0 {
		return 1
	}
	return float64(c.RawBytes()) / float64(cb)
}

// Type implements table.ColumnData: a Compressed is an int64 column.
func (c *Compressed) Type() table.Type { return table.Int64 }

// ValueAt implements table.ColumnData by decoding the row's block (baseline
// path; scans go block-at-a-time).
func (c *Compressed) ValueAt(i int) table.Value {
	var buf [BlockValues]int64
	return table.IntValue(c.DecodeBlock(i/BlockValues, buf[:])[i%BlockValues])
}

// words returns the payload of block b.
func (c *Compressed) words(b block) []uint64 {
	return c.payload[b.off : b.off+int(b.words)]
}

// decodeBlock expands block b into buf (len >= b.n) and returns the values.
func (c *Compressed) decodeBlock(b block, buf []int64) []int64 {
	out := buf[:b.n]
	words := c.words(b)
	switch b.kind {
	case kindFOR:
		if b.width == 0 {
			for i := range out {
				out[i] = b.minV
			}
			return out
		}
		width := uint(b.width)
		mask := uint64(1)<<width - 1
		if width == 64 {
			mask = ^uint64(0)
		}
		bitPos := 0
		for i := range out {
			word, off := bitPos/64, uint(bitPos%64)
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			out[i] = b.minV + int64(v&mask)
			bitPos += int(width)
		}
	case kindRLE:
		pos := 0
		for r := 0; r < len(words); r += 2 {
			v, run := int64(words[r]), out[pos:pos+int(words[r+1])]
			for k := range run {
				run[k] = v
			}
			pos += len(run)
		}
	}
	return out
}

// Decode materializes the full column.
func (c *Compressed) Decode() []int64 {
	out := make([]int64, c.n)
	for i := range c.NumBlocks() {
		c.decodeBlock(c.block(i), out[i*BlockValues:])
	}
	return out
}

// Sum decodes every block and adds its values: the decode-path reference E12
// checks against the raw column, so it does not take the header sums.
func (c *Compressed) Sum() int64 {
	var sum int64
	var buf [BlockValues]int64
	for i := range c.NumBlocks() {
		for _, v := range c.decodeBlock(c.block(i), buf[:]) {
			sum += v
		}
	}
	return sum
}

// DecodeCycles is the modeled compute to decode one value: shift/mask for
// FOR, run expansion bookkeeping for RLE. ScanWork and the server's scan
// pass both price decode with it.
const DecodeCycles = 4.0

// ScanWorkRaw models scanning n uncompressed values: pure streaming with
// trivial per-value compute.
func ScanWorkRaw(n int64) hw.Work {
	return hw.Work{
		Name:            "scan-raw",
		Tuples:          n,
		ComputePerTuple: 1,
		SeqReadBytes:    n * 8,
	}
}

// ScanWork models scanning this compressed column: fewer bytes cross the
// memory bus, paid for with per-value decode compute (shift/mask for FOR,
// run expansion bookkeeping for RLE). The trade is exactly the keynote's:
// spend the plentiful resource (ALU) to save the scarce one (bandwidth).
func (c *Compressed) ScanWork() hw.Work {
	return hw.Work{
		Name:            "scan-compressed",
		Tuples:          int64(c.n),
		ComputePerTuple: DecodeCycles,
		SeqReadBytes:    c.Bytes(),
	}
}
