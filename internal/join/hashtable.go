package join

// hashTable is an open-addressing (linear-probing) hash table specialized
// for int64 keys with int64 payloads. Duplicate keys are allowed; ProbeEach
// visits every matching entry. Slots are 16 bytes, the table is sized to a
// power of two at ~50% fill, and probing is branch-light — the same design
// the in-memory join literature uses for both the oblivious and the
// partitioned variants (the difference between them is *where* the table
// lives in the hierarchy, not its structure).
type hashTable struct {
	keys []int64
	vals []int64
	used []bool
	mask uint64
	size int
}

// newHashTable returns a table sized for n entries at 50% max load.
func newHashTable(n int) *hashTable {
	cap := 16
	for cap < 2*n {
		cap <<= 1
	}
	return &hashTable{
		keys: make([]int64, cap),
		vals: make([]int64, cap),
		used: make([]bool, cap),
		mask: uint64(cap - 1),
	}
}

// Insert adds (key, val); duplicates are stored as separate entries.
func (t *hashTable) Insert(key, val int64) {
	slot := hashKey(key) & t.mask
	for t.used[slot] {
		slot = (slot + 1) & t.mask
	}
	t.keys[slot] = key
	t.vals[slot] = val
	t.used[slot] = true
	t.size++
}

// ProbeEach calls fn with the payload of every entry matching key.
func (t *hashTable) ProbeEach(key int64, fn func(val int64)) {
	slot := hashKey(key) & t.mask
	for t.used[slot] {
		if t.keys[slot] == key {
			fn(t.vals[slot])
		}
		slot = (slot + 1) & t.mask
	}
}

// Bytes returns the table's memory footprint (the working set a probe walks
// through): key + value + used flag per slot.
func (t *hashTable) Bytes() int64 { return int64(len(t.keys)) * (8 + 8 + 1) }
