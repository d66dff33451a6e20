// Package bloom implements a blocked Bloom filter — itself a
// hardware-conscious redesign of a classic structure: instead of k
// independent probes scattered over the whole bit array (k cache misses), a
// key hashes to one 64-byte block and sets/tests all its k bits inside that
// single cache line. One miss per lookup, same false-positive math to within
// a small constant.
//
// The engine uses it for semi-join reduction: probes that cannot match are
// rejected by one touch of a small filter instead of a DRAM-latency walk of
// a large hash table.
package bloom

import (
	"fmt"
	"math"

	"hwstar/internal/hw"
)

// blockWords is the number of 64-bit words per block: 8 words = 64 bytes =
// one cache line.
const blockWords = 8

// bitsPerKeyDefault gives ~1% false positives with 6 in-block probes.
const bitsPerKeyDefault = 10

// k is the number of bits set/tested per key.
const k = 6

// Filter is a blocked Bloom filter for int64 keys.
type Filter struct {
	blocks  []uint64 // len = numBlocks * blockWords
	nBlocks uint64
	n       int64 // keys added
}

// New sizes a filter for expectedKeys at bitsPerKey bits per key (0 uses
// the default 10).
func New(expectedKeys int, bitsPerKey int) *Filter {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if bitsPerKey <= 0 {
		bitsPerKey = bitsPerKeyDefault
	}
	bits := uint64(expectedKeys) * uint64(bitsPerKey)
	nBlocks := (bits + blockWords*64 - 1) / (blockWords * 64)
	if nBlocks == 0 {
		nBlocks = 1
	}
	return &Filter{blocks: make([]uint64, nBlocks*blockWords), nBlocks: nBlocks}
}

// hash2 derives two independent 64-bit hashes for double hashing.
func hash2(key int64) (uint64, uint64) {
	h1 := uint64(key) * 0x9E3779B97F4A7C15
	h1 ^= h1 >> 29
	h2 := uint64(key) * 0xC2B2AE3D27D4EB4F
	h2 ^= h2 >> 31
	h2 |= 1 // odd, so the probe sequence covers the block
	return h1, h2
}

// Add inserts key.
func (f *Filter) Add(key int64) {
	h1, h2 := hash2(key)
	base := (h1 % f.nBlocks) * blockWords
	for i := 0; i < k; i++ {
		bit := (h1 + uint64(i)*h2) % (blockWords * 64)
		f.blocks[base+bit/64] |= 1 << (bit % 64)
	}
	f.n++
}

// Contains reports whether key may have been added (false positives
// possible, false negatives never).
func (f *Filter) Contains(key int64) bool {
	h1, h2 := hash2(key)
	base := (h1 % f.nBlocks) * blockWords
	for i := 0; i < k; i++ {
		bit := (h1 + uint64(i)*h2) % (blockWords * 64)
		if f.blocks[base+bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Bytes returns the filter footprint.
func (f *Filter) Bytes() int64 { return int64(len(f.blocks)) * 8 }

// ExpectedFPR estimates the false-positive rate for the current fill,
// using the standard Bloom approximation over the per-block bit budget.
func (f *Filter) ExpectedFPR() float64 {
	bits := float64(len(f.blocks) * 64)
	if f.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(f.n)/bits), k)
}

// ProbeWork models n filter lookups: one random access each into the filter
// (the blocked design's whole point), plus the bit arithmetic. The accesses
// are fully independent — each probe is a single line whose address is
// computable up front — so the core overlaps them at any hierarchy level.
// Filters are allocated on hugepages (the standard deployment for
// multi-megabyte filters), keeping them TLB-resident.
func (f *Filter) ProbeWork(name string, n int64) hw.Work {
	return hw.Work{
		Name:                name,
		Tuples:              n,
		ComputePerTuple:     6,
		RandomReads:         n,
		RandomWS:            f.Bytes(),
		IndependentAccesses: true,
		HugePages:           true,
	}
}

// String describes the filter.
func (f *Filter) String() string {
	return fmt.Sprintf("blocked-bloom: %d keys in %s (%.2f%% expected FPR)",
		f.n, fmtBytes(f.Bytes()), 100*f.ExpectedFPR())
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
