package serve

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/store"
)

// benchTable is the repository benchmark's durable_churn table (cmd/hwperf
// genTable, "clustered"): 1 M rows × 2 columns, an append-ordered filter
// column (a ramp over [0, 100000) with +-128 noise) and a uniform aggregate
// column in [0, 1000). Two seeds give the two versions the writer alternates.
func benchTable(seed int64) [][]int64 {
	const rows = 1 << 20
	rng := rand.New(rand.NewSource(seed))
	filter, agg := make([]int64, rows), make([]int64, rows)
	for i := range filter {
		filter[i] = int64(i)*100000/rows + rng.Int63n(256) - 128
	}
	for i := range agg {
		agg[i] = rng.Int63n(1000)
	}
	return [][]int64{filter, agg}
}

func userBytes(cols [][]int64) int64 { return int64(len(cols)) * int64(len(cols[0])) * 8 }

// durableServer opens a store on dir and a server on it.
func durableServer(tb testing.TB, dir string) (*Server, *store.Store) {
	tb.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(hw.Server2S(), Options{Store: st})
	if err != nil {
		tb.Fatal(err)
	}
	return s, st
}

// BenchmarkCheckpoint is one durable_churn writer cycle: Register the next
// version of the 1 M × 2 table, then Checkpoint it. MB/s is user bytes
// (rows × columns × 8) made durable per second.
func BenchmarkCheckpoint(b *testing.B) {
	versions := [][][]int64{benchTable(1), benchTable(2)}
	s, st := durableServer(b, b.TempDir())
	defer st.Close()
	defer s.Close()
	b.SetBytes(userBytes(versions[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Register("events", versions[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Checkpoint(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover is one restart: open the store holding the checkpointed
// 1 M × 2 table, start a server on it, wait out the replay, and answer one
// scan. MB/s is user bytes brought back into service per second.
func BenchmarkRecover(b *testing.B) {
	cols := benchTable(1)
	dir := b.TempDir()
	s, st := durableServer(b, dir)
	if err := s.Register("events", cols); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Checkpoint(context.Background()); err != nil {
		b.Fatal(err)
	}
	s.Close()
	st.Close()
	b.SetBytes(userBytes(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, st := durableServer(b, dir)
		if _, err := s.Submit(context.Background(), Request{Op: OpScan, Table: "events",
			Query: scan.Query{FilterCol: 0, Lo: 40000, Hi: 45000, AggCol: 1}}); err != nil {
			b.Fatal(err)
		}
		s.Close()
		st.Close()
	}
}

// TestRegisterCheckpointAllocationCeiling is the tier-1 ceiling on a durable
// write cycle's garbage: registering and checkpointing the 1 M × 2 clustered
// table allocates at most 8 MB — the 2.4 MB of blocks, their segment image,
// and change — where the build-both encoder and the raw segment image made it
// 193 MB.
func TestRegisterCheckpointAllocationCeiling(t *testing.T) {
	cols := benchTable(1)
	s, st := durableServer(t, t.TempDir())
	defer st.Close()
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Register+Checkpoint allocated %d bytes, ceiling %d", got, ceiling)
	}
	if user := userBytes(cols); cp.Bytes*5 > user {
		t.Errorf("checkpoint wrote %d bytes for %d user bytes, want under a fifth", cp.Bytes, user)
	}
}
