package compress

import (
	"math/rand"
	"testing"

	"hwstar/internal/mem"
)

// benchRows is the benchmark table's height (cmd/hwperf workloads.json).
const benchRows = 1 << 20

// benchColumn generates the column shapes the repository's benchmark
// registers (cmd/hwperf genTable) plus a run-heavy one: "clustered" is an
// append-ordered ramp over [0, 100000) with +-128 noise, "uniform" scatters
// that domain over every block, "runs" repeats each value a few hundred
// times so RLE wins every block.
func benchColumn(shape string, rows int) []int64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]int64, rows)
	for i := range out {
		switch shape {
		case "clustered":
			out[i] = int64(i)*100000/int64(rows) + rng.Int63n(256) - 128
		case "uniform":
			out[i] = rng.Int63n(100000)
		case "runs":
			out[i] = int64(i/300) * 1e9
		}
	}
	return out
}

var encodeSink *Compressed

// BenchmarkEncode is Register's encode layer: one 1 M-row column of each
// shape into fresh memory, and "/leased" into a lease released after each
// encode, as Server.Register re-encodes a table whose prior version's last
// reader has let go, so headers and payload come back from the pools.
func BenchmarkEncode(b *testing.B) {
	for _, shape := range []string{"clustered", "uniform", "runs"} {
		col := benchColumn(shape, benchRows)
		b.Run(shape, func(b *testing.B) {
			b.SetBytes(int64(len(col)) * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = Encode(col)
			}
		})
		b.Run(shape+"/leased", func(b *testing.B) {
			b.SetBytes(int64(len(col)) * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := mem.NewLease()
				encodeSink = EncodeLeased(col, l)
				l.Release()
			}
		})
	}
}
