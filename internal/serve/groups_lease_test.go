package serve

import (
	"context"
	"maps"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"hwstar/internal/agg"
	"hwstar/internal/mem"
	"hwstar/internal/workload"
)

// groupSumOf is a local-merge group-sum request over keys and vals.
func groupSumOf(keys, vals []int64, l *mem.Lease) Request {
	return Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: agg.StrategyLocalMerge, Lease: l}
}

// mapIdentity is a map's address: two map values are the same map iff equal.
func mapIdentity(m map[int64]int64) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }

// TestGroupsLiveUntilLastRelease pins the lease rule of a group-sum answer:
// a leased request's Response.Groups is a lease map, so it stays out of the
// pool while the caller still holds the lease after Submit has returned (the
// executor's reference is gone by then), and comes back, empty, after the
// caller's Release. A server that gave the map back in settle would hand it
// to one of the fresh leases; a pool that kept its keys would put the first
// answer's groups into the second's.
func TestGroupsLiveUntilLastRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	const rows, groups = 1 << 14, 4096
	s := newServer(t, Options{})
	defer s.Close()

	keys, vals := workload.UniformInts(31, rows, groups), workload.UniformInts(32, rows, 1000)
	lease := mem.NewLease()
	resp, err := s.Submit(context.Background(), groupSumOf(keys, vals, lease))
	if err != nil {
		t.Fatal(err)
	}
	held := mapIdentity(resp.Groups)
	for i := 0; i < 8; i++ {
		fresh := mem.NewLease()
		defer fresh.Release() // held to the end: the pool's only map is the answer's
		if mapIdentity(fresh.Map(len(resp.Groups))) == held {
			t.Fatal("a fresh lease was handed the answer's map while its caller held the lease")
		}
	}
	if !maps.Equal(resp.Groups, agg.Serial(keys, vals)) {
		t.Fatal("the held answer differs from the serial reference")
	}
	lease.Release()

	other := make([]int64, rows)
	for i, k := range keys {
		other[i] = k + 1<<20
	}
	again := mem.NewLease()
	defer again.Release()
	resp, err = s.Submit(context.Background(), groupSumOf(other, vals, again))
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && mapIdentity(resp.Groups) != held {
		t.Fatal("the released answer's map did not come back from its class pool")
	}
	if !maps.Equal(resp.Groups, agg.Serial(other, vals)) {
		t.Fatalf("a group-sum in a recycled map: %d groups, want %d", len(resp.Groups), len(agg.Serial(other, vals)))
	}
}

// TestGroupSumAllocs pins what a warm leased group-sum of hwperf's shape
// (65,536 rows, 4,096 keys, local merge) allocates through Submit: the
// answer's map comes from the lease's pool, so what is left is the request's
// own bookkeeping: 1,112 B in 11 objects on go1.24/amd64, against
// 148,936 B in 29 with the map made per request (147,824 B of it the map).
// A nil-lease request still gets a map of its own, which no later request
// touches.
func TestGroupSumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a Put lands where the next Get looks
	const rows, groups = 1 << 16, 4096
	const bytesCeiling, objectsCeiling = 4 << 10, 16
	s := newServer(t, Options{})
	defer s.Close()
	keys, vals := workload.UniformInts(41, rows, groups), workload.UniformInts(42, rows, 1000)
	want := agg.Serial(keys, vals)

	run := func(l *mem.Lease) map[int64]int64 {
		resp, err := s.Submit(context.Background(), groupSumOf(keys, vals, l))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Groups) != len(want) {
			t.Fatalf("%d groups, want %d", len(resp.Groups), len(want))
		}
		return resp.Groups
	}
	leased := func() {
		l := mem.NewLease()
		run(l)
		l.Release()
	}
	for i := 0; i < 4; i++ {
		leased()
	}
	// A GC between two runs empties the pools and the next run rebuilds
	// them; the pin is the steady state, so take the cheapest of a few runs.
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		leased()
		runtime.ReadMemStats(&m1)
		bytes, objects = min(bytes, m1.TotalAlloc-m0.TotalAlloc), min(objects, m1.Mallocs-m0.Mallocs)
	}
	if bytes > bytesCeiling || objects > objectsCeiling {
		t.Fatalf("a warm leased group-sum allocated %d B in %d objects, ceiling %d B in %d", bytes, objects, bytesCeiling, objectsCeiling)
	}

	own := run(nil)
	if !maps.Equal(own, want) {
		t.Fatal("a nil-lease group-sum differs from the serial reference")
	}
	leased()
	if next := run(nil); mapIdentity(next) == mapIdentity(own) {
		t.Fatal("two nil-lease group-sums returned one map")
	}
	if !maps.Equal(own, want) {
		t.Fatal("a later request changed a nil-lease request's map")
	}
}
