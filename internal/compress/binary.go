// The binary form of a Compressed column: the bytes a segment file stores
// and a restarted server serves from, so encoding happens once per column
// lifetime, not once per process lifetime.
//
//	values (u64) | blocks (u64) | payload words (u64)
//	blocks × { kind u8 | width u8 | n u16 | words u32 | min i64 | max i64 | sum i64 }
//	payload words × u64
//
// all little-endian. Every byte is meaningful — there is no padding and the
// payload is held verbatim — so a column that unmarshals re-marshals to the
// same bytes.

package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"hwstar/internal/errs"
)

const (
	binPrefixBytes = 24
	binBlockBytes  = 32
)

// BinarySize returns the length of the column's binary form.
func (c *Compressed) BinarySize() int {
	return binPrefixBytes + c.NumBlocks()*binBlockBytes + len(c.payload)*8
}

// WriteBinary writes the column's binary form to w through buf: it fills
// buf, writes it whenever the next field would overflow it and once more at
// the end, so a column of any size goes out without a copy of its size. A
// buf of at least one block header (32 bytes) is never outgrown.
func (c *Compressed) WriteBinary(w io.Writer, buf []byte) error {
	le := binary.LittleEndian
	out := le.AppendUint64(buf[:0], uint64(c.n))
	out = le.AppendUint64(out, uint64(c.NumBlocks()))
	out = le.AppendUint64(out, uint64(len(c.payload)))
	for i := range c.NumBlocks() {
		if len(out)+binBlockBytes > cap(out) {
			if _, err := w.Write(out); err != nil {
				return err
			}
			out = out[:0]
		}
		b := c.block(i)
		out = append(out, byte(b.kind), b.width)
		out = le.AppendUint16(out, b.n)
		out = le.AppendUint32(out, b.words)
		out = le.AppendUint64(out, uint64(b.minV))
		out = le.AppendUint64(out, uint64(b.maxV))
		out = le.AppendUint64(out, uint64(b.sum))
	}
	for _, v := range c.payload {
		if len(out)+8 > cap(out) {
			if _, err := w.Write(out); err != nil {
				return err
			}
			out = out[:0]
		}
		out = le.AppendUint64(out, v)
	}
	_, err := w.Write(out)
	return err
}

// UnmarshalColumn rebuilds a column from its binary form. data comes from
// disk or a peer, so everything the scan kernels index by is checked here:
// the three lengths against len(data) and each other, the block count and
// per-block value counts against the value count, each block's kind, its
// width against its zone map, its payload length against its width, and
// every RLE run (positive lengths totalling the block, values inside the
// zone map). A column that passes cannot send DecodeBlock out of bounds,
// and Match and BlockSum read only its headers. Payload bits, zone maps and
// sums are not recomputed — that would be a full decode per load; whole-file
// integrity is the caller's checksum. Any violation wraps errs.ErrCorrupted.
func UnmarshalColumn(data []byte) (*Compressed, error) {
	if len(data) < binPrefixBytes {
		return nil, corrupt("%d bytes is shorter than the column prefix", len(data))
	}
	le := binary.LittleEndian
	n, nb, pw := le.Uint64(data), le.Uint64(data[8:]), le.Uint64(data[16:])
	// Bound the counts by the bytes present before multiplying or allocating.
	room := uint64(len(data) - binPrefixBytes)
	if nb > room/binBlockBytes || pw > room/8 || nb*binBlockBytes+pw*8 != room {
		return nil, corrupt("%d blocks and %d payload words do not fill %d bytes", nb, pw, len(data))
	}
	if nb != (n+BlockValues-1)/BlockValues || n > nb*BlockValues {
		return nil, corrupt("%d blocks for %d values", nb, n)
	}
	c := &Compressed{n: int(n), hdr: make([]uint64, nb*hdrWords), payload: make([]uint64, pw)}
	hdrs, body := data[binPrefixBytes:binPrefixBytes+nb*binBlockBytes], data[binPrefixBytes+nb*binBlockBytes:]
	for i := range c.payload {
		c.payload[i] = le.Uint64(body[i*8:])
	}
	off := 0
	for i := range int(nb) {
		h := hdrs[i*binBlockBytes:]
		b := block{
			kind: blockKind(h[0]), width: h[1], n: le.Uint16(h[2:]), words: le.Uint32(h[4:]),
			minV: int64(le.Uint64(h[8:])), maxV: int64(le.Uint64(h[16:])), sum: int64(le.Uint64(h[24:])),
			off: off,
		}
		want := BlockValues
		if i == int(nb)-1 {
			want = c.n - i*BlockValues
		}
		if int(b.n) != want {
			return nil, corrupt("block %d holds %d values, want %d", i, b.n, want)
		}
		if b.minV > b.maxV {
			return nil, corrupt("block %d zone map [%d, %d] is inverted", i, b.minV, b.maxV)
		}
		if int(b.words) > len(c.payload)-off {
			return nil, corrupt("block %d payload of %d words overruns the column", i, b.words)
		}
		if err := c.checkPayload(i, b); err != nil {
			return nil, err
		}
		c.setBlock(i, b)
		off += int(b.words)
	}
	if off != len(c.payload) {
		return nil, corrupt("blocks index %d of %d payload words", off, len(c.payload))
	}
	return c, nil
}

// checkPayload validates block i's encoding-specific fields against its
// payload, which is already in place.
func (c *Compressed) checkPayload(i int, b block) error {
	switch b.kind {
	case kindFOR:
		if b.width != uint8(bits.Len64(uint64(b.maxV-b.minV))) {
			return corrupt("block %d width %d does not span [%d, %d]", i, b.width, b.minV, b.maxV)
		}
		if int(b.words) != forWords(int(b.n), b.width) {
			return corrupt("block %d packs %d values at width %d into %d words", i, b.n, b.width, b.words)
		}
	case kindRLE:
		if b.width != 0 || b.words == 0 || b.words%2 != 0 {
			return corrupt("block %d run list of %d words at width %d", i, b.words, b.width)
		}
		runs := c.words(b)
		total := uint64(0)
		for r := 0; r < len(runs); r += 2 {
			v, runLen := int64(runs[r]), runs[r+1]
			if runLen == 0 || runLen > uint64(b.n) || v < b.minV || v > b.maxV {
				return corrupt("block %d run %d (value %d, length %d) outside the block", i, r/2, v, runLen)
			}
			total += runLen
		}
		if total != uint64(b.n) {
			return corrupt("block %d runs total %d of %d values", i, total, b.n)
		}
	default:
		return corrupt("block %d has unknown kind %d", i, b.kind)
	}
	return nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("compress: "+format+": %w", append(args, errs.ErrCorrupted)...)
}
