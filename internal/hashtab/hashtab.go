// Package hashtab is the one integer hash table of the query path: join
// builds and probes it, agg sums groups and counts distinct keys in it. It
// is open-addressing (linear probing) over int64 keys with int64 payloads,
// sized to a power of two at no more than 50% fill and never grown — the
// design the in-memory join literature uses for both the oblivious and the
// partitioned variants (the difference between them is *where* the table
// lives in the hierarchy, not its structure).
//
// Tables are recycled through Get/Put, pooled by exact capacity, so a
// steady stream of same-shaped queries allocates no table at all and a
// pooled table has exactly the footprint a fresh one would: Bytes, which
// operators report to the machine model as their random working set, does
// not depend on what the pool held.
package hashtab

import (
	"math/bits"
	"sync"
)

// slotBytes is the footprint of one slot: key + value + used flag.
const slotBytes = 8 + 8 + 1

// minCapacity is the smallest table built.
const minCapacity = 16

// Table is an int64 → int64 hash table with two insertion disciplines that
// must not be mixed on one table: Insert keeps duplicate keys as separate
// entries (a join's build side; ProbeEach visits every match), Add keeps one
// entry per key and sums into it (a group table, or with delta 0 a set).
type Table struct {
	keys  []int64
	vals  []int64
	used  []bool
	shift uint // 64 - log2(capacity): a slot is the hash's top bits
	size  int
}

// class returns log2 of the capacity a table for n entries gets: the least
// power of two that is at least 2n and at least minCapacity.
func class(n int) int {
	if n <= minCapacity/2 {
		return bits.TrailingZeros(minCapacity)
	}
	return bits.Len(uint(2*n - 1))
}

// BytesFor returns the footprint of a table sized for n entries, without
// building one. Operators charge it against their memory reservation BEFORE
// taking the table, so a denial arrives while degrading (spilling) is still
// possible; planners price probes with it from statistics alone.
func BytesFor(n int) int64 { return slotBytes << class(n) }

// pools holds idle tables, one pool per capacity class.
var pools [bits.UintSize]sync.Pool

// Get returns an empty table sized for n entries at 50% max load, recycled
// from the pool of its capacity class when one is idle.
func Get(n int) *Table {
	c := class(n)
	if t, ok := pools[c].Get().(*Table); ok {
		return t
	}
	return &Table{
		keys:  make([]int64, 1<<c),
		vals:  make([]int64, 1<<c),
		used:  make([]bool, 1<<c),
		shift: uint(64 - c),
	}
}

// Put empties t and returns it to its pool. The caller must not touch t
// afterwards; whatever state an abandoned query left in it is gone before
// the next Get can see it.
func Put(t *Table) {
	t.Reset()
	pools[64-t.shift].Put(t)
}

// Hash is the multiplicative hash shared by the table and by every
// hash partitioner in front of it.
func Hash(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// Slot returns the slot key's probe sequence starts at. It is the hash's
// top bits: radix partitioners and the router's shuffle consume the low
// bits, so the keys of one partition agree there and would pile onto a few
// home slots if the table looked at them too.
func (t *Table) Slot(key int64) uint64 { return Hash(key) >> t.shift }

// Reset empties the table in place, keeping its capacity. Only the used
// flags are cleared: a slot's key and value are never read while its flag
// is down.
func (t *Table) Reset() {
	clear(t.used)
	t.size = 0
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.size }

// Bytes returns the table's memory footprint (the working set a probe walks
// through).
func (t *Table) Bytes() int64 { return int64(len(t.keys)) * slotBytes }

// Insert adds (key, val); duplicates are stored as separate entries.
func (t *Table) Insert(key, val int64) {
	mask := uint64(len(t.used) - 1)
	slot := t.Slot(key)
	for t.used[slot] {
		slot = (slot + 1) & mask
	}
	t.keys[slot] = key
	t.vals[slot] = val
	t.used[slot] = true
	t.size++
}

// Add adds delta to key's entry, creating it at delta when absent.
func (t *Table) Add(key, delta int64) {
	mask := uint64(len(t.used) - 1)
	slot := t.Slot(key)
	for t.used[slot] {
		if t.keys[slot] == key {
			t.vals[slot] += delta
			return
		}
		slot = (slot + 1) & mask
	}
	t.keys[slot] = key
	t.vals[slot] = delta
	t.used[slot] = true
	t.size++
}

// ProbeEach calls fn with the payload of every entry matching key.
func (t *Table) ProbeEach(key int64, fn func(val int64)) {
	t.ProbeFrom(t.Slot(key), key, fn)
}

// ProbeFrom is ProbeEach from a slot computed earlier by Slot(key): the
// group-prefetching probe loops compute a whole group's slots before
// walking any of them.
func (t *Table) ProbeFrom(slot uint64, key int64, fn func(val int64)) {
	mask := uint64(len(t.used) - 1)
	for t.used[slot] {
		if t.keys[slot] == key {
			fn(t.vals[slot])
		}
		slot = (slot + 1) & mask
	}
}

// Range calls fn for every entry, in slot order.
func (t *Table) Range(fn func(key, val int64)) {
	for slot, u := range t.used {
		if u {
			fn(t.keys[slot], t.vals[slot])
		}
	}
}
