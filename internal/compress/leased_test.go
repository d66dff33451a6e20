package compress

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hwstar/internal/mem"
)

// TestEncodeLeasedOverDirtySlabs: recycled header and payload words are not
// cleared, so EncodeLeased must write every word of them. Each column's
// header-sized and payload-sized slabs are first handed out all ones and
// released; the encode that gets them back must marshal exactly as
// Encode's into fresh memory. It covers the property test's block shapes
// and the fuzz seeds' 48-value heads, and a packer that skips a word —
// packFOR without its final partial-word flush — fails it, as does a
// header word setBlock leaves unwritten.
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
		hdr, slab := dirty.Words(len(want.hdr)), dirty.Words(len(want.payload))
		for _, w := range [][]uint64{hdr, slab} {
			for i := range w {
				w[i] = ^uint64(0)
			}
		}
		dirty.Release()
		l := mem.NewLease()
		got := EncodeLeased(vals, l)
		dirtied := func(w []uint64) bool {
			return len(w) > 0 && ((len(hdr) > 0 && &w[0] == &hdr[0]) || (len(slab) > 0 && &w[0] == &slab[0]))
		}
		for _, w := range [][]uint64{got.hdr, got.payload} {
			if len(w) > 0 {
				leased++
				if dirtied(w) {
					reused++
				}
			}
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Errorf("%d values: EncodeLeased over an all-ones slab marshals differently from Encode", len(vals))
		}
		l.Release()
	}
	if !raceEnabled && reused != leased {
		t.Fatalf("%d of %d leased slabs were the dirty ones: the test did not exercise recycled memory", reused, leased)
	}
}

// TestEncodeLeasedAllocs: a warm EncodeLeased takes a column's block headers
// and payload from the lease's pools, so a 1 M-row encode into a lease
// allocates only the *Compressed. It is measured against a lease that takes
// the same two slabs and encodes nothing, so the lease's own bookkeeping
// cancels out: one object and under 128 bytes more. A header array made per
// encode is 40 KB more. A GC between two runs empties the pools, so the pin
// is the cheapest of a few measurements.
func TestEncodeLeasedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a Put lands where the next Get looks
	col := benchColumn("uniform", benchRows)
	c := Encode(col)
	perRun := func(encode bool) (objects, bytes uint64) {
		run := func() {
			l := mem.NewLease()
			if encode {
				encodeSink = EncodeLeased(col, l)
			} else {
				l.Words(len(c.hdr))
				l.Words(len(c.payload))
			}
			l.Release()
		}
		objects, bytes = math.MaxUint64, math.MaxUint64
		for range 4 {
			run() // warm the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			objects, bytes = min(objects, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objects, bytes
	}
	encObjects, encBytes := perRun(true)
	leaseObjects, leaseBytes := perRun(false)
	if encObjects != leaseObjects+1 || encBytes >= leaseBytes+128 {
		t.Fatalf("a warm leased encode of %d rows made %d objects, %d bytes; its lease alone %d, %d: want one object (the *Compressed) and under 128 bytes more",
			len(col), encObjects, encBytes, leaseObjects, leaseBytes)
	}
}
