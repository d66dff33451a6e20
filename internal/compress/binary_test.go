package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"hwstar/internal/errs"
)

// refBlock is one block as the pre-PR-20 encoder built it: both encodings
// materialized, the smaller kept.
type refBlock struct {
	kind       blockKind
	n          int
	minV, maxV int64
	width      uint8
	payload    []uint64
}

// refEncode is the build-both encoder Encode replaced, kept verbatim in
// behaviour as the reference the new single-pass choice must match bit for
// bit: FOR via per-value word/offset arithmetic, RLE via an appended run
// list, RLE only when strictly smaller.
func refEncode(values []int64) []refBlock {
	var out []refBlock
	for start := 0; start < len(values); start += BlockValues {
		vals := values[start:min(start+BlockValues, len(values))]
		minV, maxV := vals[0], vals[0]
		for _, v := range vals {
			minV, maxV = min(minV, v), max(maxV, v)
		}
		width := uint8(bits.Len64(uint64(maxV - minV)))
		forWords := make([]uint64, (len(vals)*int(width)+63)/64)
		if width > 0 {
			bitPos := 0
			for _, v := range vals {
				delta := uint64(v - minV)
				word, off := bitPos/64, uint(bitPos%64)
				forWords[word] |= delta << off
				if off+uint(width) > 64 {
					forWords[word+1] |= delta >> (64 - off)
				}
				bitPos += int(width)
			}
		}
		var runs []uint64
		for i := 0; i < len(vals); {
			j := i
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			runs = append(runs, uint64(vals[i]), uint64(j-i))
			i = j
		}
		b := refBlock{kind: kindFOR, n: len(vals), minV: minV, maxV: maxV, width: width, payload: forWords}
		if len(runs) < len(forWords) {
			b = refBlock{kind: kindRLE, n: len(vals), minV: minV, maxV: maxV, payload: runs}
		}
		out = append(out, b)
	}
	return out
}

// shapeColumn is one named block-shape case of the binary-form property
// test; the fuzz targets seed their corpora from the same list.
type shapeColumn struct {
	name string
	vals []int64
}

// shapeColumns draws the block shapes the format must carry: every boundary
// of the block count, each width the packer special-cases, both encodings,
// and the ends of the int64 domain.
func shapeColumns(r *rand.Rand) []shapeColumn {
	fill := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	shapes := []shapeColumn{
		{"empty", nil},
		{"single", []int64{r.Int63()}},
		{"short-last-block", fill(2*BlockValues+1+r.Intn(BlockValues-1), func(int) int64 { return r.Int63n(1 << 20) })},
		{"exact-blocks", fill(3*BlockValues, func(int) int64 { return r.Int63n(1000) })},
		{"constant", fill(BlockValues+r.Intn(BlockValues), func(int) int64 { return -7 })},
		{"all-runs", fill(4*BlockValues, func(i int) int64 { return int64(i/(100+r.Intn(3))) << 40 })},
		{"runs-then-noise", fill(2*BlockValues, func(i int) int64 {
			if i < BlockValues {
				return int64(i / 256)
			}
			return r.Int63n(1 << 30)
		})},
		{"width-1", fill(BlockValues+17, func(int) int64 { return 41 + r.Int63n(2) })},
		{"width-63", fill(BlockValues+17, func(int) int64 { return r.Int63() })},
		{"width-64", fill(BlockValues+17, func(int) int64 { return int64(r.Uint64()) })},
		{"min-max", fill(BlockValues, func(i int) int64 {
			if i%2 == 0 {
				return math.MinInt64
			}
			return math.MaxInt64
		})},
		{"min-only", fill(300, func(int) int64 { return math.MinInt64 })},
		{"near-max", fill(BlockValues+5, func(int) int64 { return math.MaxInt64 - r.Int63n(1<<61) })},
	}
	for _, w := range []uint{2, 7, 13, 31, 32, 33, 62} {
		w := w
		shapes = append(shapes, shapeColumn{"width-" + strconv.Itoa(int(w)), fill(BlockValues+r.Intn(BlockValues), func(int) int64 {
			return r.Int63n(1<<w) - 1<<(w-1)
		})})
	}
	return shapes
}

// TestBinaryFormProperty checks, over seeded block shapes, that (1) Encode's
// single-pass codec choice and in-place packing equal the build-both
// reference encoder bit for bit, (2) each block header's sum is the block's
// wrapping sum, and (3) Encode -> AppendBinary -> UnmarshalColumn preserves
// Decode(), zone maps, block sums and re-marshals to the same bytes.
func TestBinaryFormProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, sh := range shapeColumns(r) {
			c := Encode(sh.vals)

			ref := refEncode(sh.vals)
			if len(ref) != c.NumBlocks() {
				t.Fatalf("%s: %d blocks, reference %d", sh.name, c.NumBlocks(), len(ref))
			}
			for i, rb := range ref {
				b := &c.blocks[i]
				if b.kind != rb.kind || int(b.n) != rb.n || b.minV != rb.minV || b.maxV != rb.maxV || b.width != rb.width {
					t.Fatalf("%s block %d: header %+v, reference %+v", sh.name, i, *b, rb)
				}
				if !slices.Equal(c.words(b), rb.payload) {
					t.Fatalf("%s block %d (kind %d width %d): payload differs from reference", sh.name, i, b.kind, b.width)
				}
				var want int64
				for _, v := range blockOf(sh.vals, i) {
					want += v
				}
				if c.BlockSum(i) != want {
					t.Fatalf("%s block %d: BlockSum %d, want %d", sh.name, i, c.BlockSum(i), want)
				}
			}

			bin := c.AppendBinary(nil)
			if len(bin) != c.BinarySize() {
				t.Fatalf("%s: BinarySize %d, marshalled %d", sh.name, c.BinarySize(), len(bin))
			}
			back, err := UnmarshalColumn(bin)
			if err != nil {
				t.Fatalf("%s: UnmarshalColumn: %v", sh.name, err)
			}
			if !slices.Equal(back.Decode(), sh.vals) || !slices.Equal(c.Decode(), sh.vals) {
				t.Fatalf("%s: decoded column differs from the input after the round trip", sh.name)
			}
			if back.Bytes() != c.Bytes() || back.NumBlocks() != c.NumBlocks() {
				t.Fatalf("%s: footprint %d/%d blocks, want %d/%d", sh.name, back.Bytes(), back.NumBlocks(), c.Bytes(), c.NumBlocks())
			}
			for i := 0; i < c.NumBlocks(); i++ {
				lo, hi := c.BlockRange(i)
				blo, bhi := back.BlockRange(i)
				if lo != blo || hi != bhi || c.BlockSum(i) != back.BlockSum(i) || c.BlockLen(i) != back.BlockLen(i) {
					t.Fatalf("%s block %d: zone map / sum / length changed in the round trip", sh.name, i)
				}
			}
			if again := back.AppendBinary(nil); !bytes.Equal(again, bin) {
				t.Fatalf("%s: re-marshal differs from the bytes unmarshalled", sh.name)
			}
		}
	}
}

// TestUnmarshalColumnRejects flips each checked field of a valid two-kind
// column in turn; every one must come back as errs.ErrCorrupted, never a
// panic and never a column.
func TestUnmarshalColumnRejects(t *testing.T) {
	vals := make([]int64, BlockValues+100)
	for i := range vals {
		vals[i] = int64(i/300) << 33 // block 0: RLE
		if i >= BlockValues {
			vals[i] = int64(i % 97) // block 1: FOR, width 7, short
		}
	}
	good := Encode(vals).AppendBinary(nil)
	if c, err := UnmarshalColumn(good); err != nil || c.blocks[0].kind != kindRLE || c.blocks[1].kind != kindFOR {
		t.Fatalf("fixture: err %v, want an RLE block then a FOR block", err)
	}
	le := binary.LittleEndian
	hdr := func(block, field int) int { return binPrefixBytes + block*binBlockBytes + field }
	payload := binPrefixBytes + 2*binBlockBytes
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty input", func(b []byte) []byte { return nil }},
		{"short prefix", func(b []byte) []byte { return b[:binPrefixBytes-1] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"value count beyond blocks", func(b []byte) []byte { le.PutUint64(b, 3*BlockValues); return b }},
		{"value count wraps", func(b []byte) []byte { le.PutUint64(b, math.MaxUint64); return b }},
		{"block count huge", func(b []byte) []byte { le.PutUint64(b[8:], math.MaxUint64/2); return b }},
		{"payload count huge", func(b []byte) []byte { le.PutUint64(b[16:], math.MaxUint64/4); return b }},
		{"block count short", func(b []byte) []byte { le.PutUint64(b[8:], 1); return b }},
		{"unknown kind", func(b []byte) []byte { b[hdr(1, 0)] = 2; return b }},
		{"FOR width beyond zone map", func(b []byte) []byte { b[hdr(1, 1)] = 9; return b }},
		{"FOR width over 64", func(b []byte) []byte { b[hdr(1, 1)] = 65; return b }},
		{"RLE with a width", func(b []byte) []byte { b[hdr(0, 1)] = 3; return b }},
		{"full block short", func(b []byte) []byte { le.PutUint16(b[hdr(0, 2):], BlockValues-1); return b }},
		{"last block long", func(b []byte) []byte { le.PutUint16(b[hdr(1, 2):], 101); return b }},
		{"block length zero", func(b []byte) []byte { le.PutUint16(b[hdr(1, 2):], 0); return b }},
		{"FOR words short", func(b []byte) []byte { le.PutUint32(b[hdr(1, 4):], 1); return b }},
		{"words overrun payload", func(b []byte) []byte { le.PutUint32(b[hdr(1, 4):], math.MaxUint32); return b }},
		{"RLE odd words", func(b []byte) []byte { le.PutUint32(b[hdr(0, 4):], 7); return b }},
		{"RLE no words", func(b []byte) []byte { le.PutUint32(b[hdr(0, 4):], 0); return b }},
		{"zone map inverted", func(b []byte) []byte { le.PutUint64(b[hdr(1, 8):], 1000); return b }},
		{"run length zero", func(b []byte) []byte { le.PutUint64(b[payload+8:], 0); return b }},
		{"run length negative", func(b []byte) []byte { le.PutUint64(b[payload+8:], math.MaxUint64); return b }},
		{"run total short", func(b []byte) []byte { le.PutUint64(b[payload+8:], 299); return b }},
		{"run value outside zone map", func(b []byte) []byte { le.PutUint64(b[payload:], 1<<50); return b }},
	}
	for _, tc := range cases {
		c, err := UnmarshalColumn(tc.mutate(append([]byte(nil), good...)))
		if !errors.Is(err, errs.ErrCorrupted) || c != nil {
			t.Errorf("%s: column %v, err %v; want nil, ErrCorrupted", tc.name, c != nil, err)
		}
	}
}

// TestEncodeAllocationCeiling is the tier-1 ceiling on the encoder's garbage:
// a 1 M-row column of either benchmark shape encodes in a handful of
// allocations totalling at most 1.25x the encoded footprint (the parent's
// build-both encoder made 14,348 allocations and 62 MB for 1.2 MB of blocks).
func TestEncodeAllocationCeiling(t *testing.T) {
	for _, shape := range []string{"clustered", "uniform"} {
		col := benchColumn(shape, benchRows)
		var c *Compressed
		if got := testing.AllocsPerRun(3, func() { c = Encode(col) }); got > 16 {
			t.Errorf("%s: Encode made %.0f allocations, ceiling 16", shape, got)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c = Encode(col)
		runtime.ReadMemStats(&after)
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), c.Bytes()*5/4; got > limit {
			t.Errorf("%s: Encode allocated %d bytes for a %d-byte column, ceiling %d", shape, got, c.Bytes(), limit)
		}
	}
}
