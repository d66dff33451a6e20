package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"hwstar/internal/errs"
)

// FuzzUnmarshalColumn drives the column trust boundary — bytes from a
// segment file or a peer — with mutations of the property test's block
// shapes. It must never panic; a rejection must wrap errs.ErrCorrupted; an
// accepted column must re-marshal to exactly the input, whole and through a
// one-header write buffer, and must carry every block through the block
// kernel (blockSelect on a straddling, a covering and an empty range)
// without indexing out of bounds.
func FuzzUnmarshalColumn(f *testing.F) {
	for _, sh := range shapeColumns(rand.New(rand.NewSource(1))) {
		f.Add(Encode(sh.vals).AppendBinary(nil))
		// A head small enough for byte mutations to reach every field.
		f.Add(Encode(sh.vals[:min(len(sh.vals), 48)]).AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalColumn(data)
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) || c != nil {
				t.Fatalf("rejection %v (column %v) does not wrap ErrCorrupted", err, c != nil)
			}
			return
		}
		if again := c.AppendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes, re-marshalled %d different ones", len(data), len(again))
		}
		// Through a buffer of one block header, every field and word
		// boundary meets a chunk boundary somewhere.
		var chunked bytes.Buffer
		if err := c.WriteBinary(&chunked, make([]byte, binBlockBytes)); err != nil || !bytes.Equal(chunked.Bytes(), data) {
			t.Fatalf("WriteBinary through %d bytes: err %v, wrote %d bytes that differ from the %d accepted", binBlockBytes, err, chunked.Len(), len(data))
		}
		var buf [BlockValues]int64
		rows := 0
		for i := 0; i < c.NumBlocks(); i++ {
			n := c.BlockLen(i)
			if got := len(c.DecodeBlock(i, buf[:])); got != n {
				t.Fatalf("block %d decoded %d of %d values", i, got, n)
			}
			lo, hi := c.BlockRange(i)
			mid := lo + (hi-lo)/2
			for _, r := range [][2]int64{{lo, mid}, {mid, hi}, {lo, hi}, {hi, lo}} {
				if cnt, _, _ := blockSelect(c, i, r[0], r[1], buf[:]); cnt > n {
					t.Fatalf("block %d selected %d rows of %d", i, cnt, n)
				}
			}
			rows += n
		}
		if rows != c.Len() || len(c.Decode()) != rows {
			t.Fatalf("blocks hold %d rows, column says %d", rows, c.Len())
		}
	})
}
