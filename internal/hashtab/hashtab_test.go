package hashtab

import (
	"math"
	"math/rand"
	"testing"
)

func TestHashTableBasics(t *testing.T) {
	ht := Get(4)
	defer Put(ht)
	ht.Insert(7, 70)
	ht.Insert(7, 71) // duplicate key
	ht.Insert(8, 80)
	if ht.Len() != 3 {
		t.Fatalf("size = %d", ht.Len())
	}
	var got []int64
	ht.ProbeEach(7, func(v int64) { got = append(got, v) })
	if len(got) != 2 {
		t.Fatalf("duplicate probe found %v", got)
	}
	got = got[:0]
	ht.ProbeEach(99, func(v int64) { got = append(got, v) })
	if len(got) != 0 {
		t.Fatal("missing key should match nothing")
	}
	if ht.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestHashTableManyCollisions(t *testing.T) {
	// Insert far more keys than initial sizing would like; table was sized
	// for them so fill stays at 50%.
	const n = 10000
	ht := Get(n)
	defer Put(ht)
	for i := int64(0); i < n; i++ {
		ht.Insert(i, i*2)
	}
	for i := int64(0); i < n; i++ {
		found := false
		ht.ProbeEach(i, func(v int64) { found = v == i*2 })
		if !found {
			t.Fatalf("key %d lost", i)
		}
	}
}

// TestAddMatchesMap: Add is an upsert-sum — against a Go map over keys that
// include 0, negatives and both int64 extremes, Len and Range agree.
func TestAddMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	domain := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	for i := 0; i < 500; i++ {
		domain = append(domain, rng.Int63()-rng.Int63())
	}
	want := make(map[int64]int64)
	ht := Get(len(domain))
	defer Put(ht)
	for i := 0; i < 20000; i++ {
		k, d := domain[rng.Intn(len(domain))], rng.Int63n(2000)-1000
		want[k] += d
		ht.Add(k, d)
	}
	if ht.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", ht.Len(), len(want))
	}
	seen := 0
	ht.Range(func(k, v int64) {
		seen++
		if w, ok := want[k]; !ok || w != v {
			t.Fatalf("key %d = %d, want %d (present %v)", k, v, w, ok)
		}
	})
	if seen != len(want) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(want))
	}
}

// TestBytesForIsTheSizingLoop pins BytesFor, and the table Get builds, to the
// loop join and the planner each used to carry a copy of: capacity 16
// doubling until it reaches 2n, 17 bytes a slot. Every RandomWS charge of
// the join and agg operators is one of these figures.
func TestBytesForIsTheSizingLoop(t *testing.T) {
	loop := func(n int) int64 {
		c := 16
		for c < 2*n {
			c <<= 1
		}
		return int64(c) * 17
	}
	for _, n := range []int{-1, 0, 1, 7, 8, 9, 16, 17, 1023, 1024, 1025, 4096, 65535, 65536, 65537, 1 << 20} {
		if got := BytesFor(n); got != loop(n) {
			t.Errorf("BytesFor(%d) = %d, want %d", n, got, loop(n))
		}
		if n <= 65537 {
			ht := Get(n)
			if ht.Bytes() != loop(n) {
				t.Errorf("Get(%d).Bytes() = %d, want %d", n, ht.Bytes(), loop(n))
			}
			Put(ht)
		}
	}
}

// TestPutEmptiesTheTable: whatever a query left behind — here a table
// abandoned half-built — the next Get of that class sees an empty table.
func TestPutEmptiesTheTable(t *testing.T) {
	for round := 0; round < 4; round++ {
		ht := Get(100)
		if ht.Len() != 0 {
			t.Fatalf("round %d: Get returned a table holding %d entries", round, ht.Len())
		}
		ht.ProbeEach(5, func(int64) { t.Fatalf("round %d: stale entry for key 5", round) })
		ht.Range(func(k, _ int64) { t.Fatalf("round %d: stale key %d", round, k) })
		for k := int64(0); k < 100; k++ {
			ht.Add(k, 1)
		}
		Put(ht)
	}
}

// TestPartitionedKeysDoNotCluster: the keys of one radix partition agree on
// the hash's low bits. A table that took its slot from those bits would
// start all of them from 1/fanout of its slots; from the top bits the
// probe walks stay as short as for unpartitioned keys.
func TestPartitionedKeysDoNotCluster(t *testing.T) {
	const fanout, n = 64, 4096
	var part []int64
	for k := int64(0); len(part) < n; k++ {
		if Hash(k)&(fanout-1) == 3 {
			part = append(part, k)
		}
	}
	ht := Get(n)
	defer Put(ht)
	for _, k := range part {
		ht.Add(k, 1)
	}
	mask := uint64(len(ht.used) - 1)
	var walked int
	for _, k := range part {
		for slot := ht.Slot(k); ht.keys[slot] != k; slot = (slot + 1) & mask {
			walked++
		}
	}
	if perKey := float64(walked) / n; perKey > 2 {
		t.Fatalf("%.1f slots walked past per key at 50%% fill: one partition's keys share home slots", perKey)
	}
}
