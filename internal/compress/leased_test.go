package compress

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"hwstar/internal/mem"
)

// TestEncodeLeasedOverDirtySlabs: a recycled payload slab is not cleared, so
// EncodeLeased must write every word of it. Each column's slab is first
// handed out all ones and released; the encode that gets it back must
// marshal exactly as Encode's into fresh memory. It covers the property
// test's block shapes and the fuzz seeds' 48-value heads, and a packer that
// skips a word — packFOR without its final partial-word flush — fails it.
func TestEncodeLeasedOverDirtySlabs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	var cols [][]int64
	for _, sh := range shapeColumns(rand.New(rand.NewSource(1))) {
		cols = append(cols, sh.vals, sh.vals[:min(len(sh.vals), 48)])
	}
	reused, leased := 0, 0
	for _, vals := range cols {
		want := Encode(vals)
		dirty := mem.NewLease()
		slab := dirty.Words(len(want.payload))
		for i := range slab {
			slab[i] = ^uint64(0)
		}
		dirty.Release()
		l := mem.NewLease()
		got := EncodeLeased(vals, l)
		if len(slab) > 0 {
			leased++
			if &got.payload[0] == &slab[0] {
				reused++
			}
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Errorf("%d values: EncodeLeased over an all-ones slab marshals differently from Encode", len(vals))
		}
		l.Release()
	}
	if !raceEnabled && reused != leased {
		t.Fatalf("%d of %d encodes got the dirty slab back: the test did not exercise recycled memory", reused, leased)
	}
}
