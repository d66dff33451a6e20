// Package workload generates the synthetic datasets and operation streams
// used by every experiment: uniform and Zipf-skewed keys, foreign-key join
// inputs, a TPC-H-flavoured lineitem table, and a YCSB-style key-value
// operation mix. All generators are seeded and deterministic so experiments
// reproduce bit-identically.
package workload

import (
	"fmt"
	"math/rand"

	"hwstar/internal/table"
)

// UniformInts returns n keys drawn uniformly from [0, max).
func UniformInts(seed int64, n int, max int64) []int64 {
	if max <= 0 {
		panic(fmt.Sprintf("workload: UniformInts max=%d", max))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(max)
	}
	return out
}

// SequentialInts returns 0..n-1.
func SequentialInts(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// ShuffledInts returns a random permutation of 0..n-1.
func ShuffledInts(seed int64, n int) []int64 {
	out := SequentialInts(n)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ZipfInts returns n keys in [0, max) with Zipfian skew parameter s > 1.
// Higher s concentrates mass on few keys; s→1 approaches uniform-ish heavy
// tails. Keys are scattered over the domain (rank r does not equal key r) so
// that skew does not accidentally correlate with key locality.
func ZipfInts(seed int64, n int, max int64, s float64) []int64 {
	if max <= 0 {
		panic(fmt.Sprintf("workload: ZipfInts max=%d", max))
	}
	if s <= 1 {
		s = 1.0001
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(max-1))
	// Scatter ranks over the key domain with a fixed multiplicative hash.
	out := make([]int64, n)
	for i := range out {
		rank := z.Uint64()
		out[i] = int64((rank * 0x9E3779B97F4A7C15) % uint64(max))
	}
	return out
}

// JoinConfig describes a foreign-key join input: a build relation with
// BuildRows unique keys and a probe relation with ProbeRows keys drawn from
// the build key domain.
type JoinConfig struct {
	Seed      int64
	BuildRows int
	ProbeRows int
	// ZipfS > 0 skews probe keys toward few build keys; 0 means uniform.
	ZipfS float64
	// Miss is the fraction of probe keys that match nothing (drawn outside
	// the build domain).
	Miss float64
}

// JoinInput holds generated join inputs. Build keys are a permutation of
// 0..BuildRows-1 (unique, as in a primary key); BuildVals/ProbeVals are
// payloads carried through the join.
type JoinInput struct {
	BuildKeys, ProbeKeys []int64
	BuildVals, ProbeVals []int64
}

// GenerateJoin materializes a JoinConfig.
func GenerateJoin(cfg JoinConfig) JoinInput {
	if cfg.BuildRows <= 0 || cfg.ProbeRows < 0 {
		panic(fmt.Sprintf("workload: bad join config %+v", cfg))
	}
	in := JoinInput{
		BuildKeys: ShuffledInts(cfg.Seed, cfg.BuildRows),
		BuildVals: UniformInts(cfg.Seed+1, cfg.BuildRows, 1<<30),
		ProbeVals: UniformInts(cfg.Seed+2, cfg.ProbeRows, 1<<30),
	}
	if cfg.ZipfS > 0 {
		in.ProbeKeys = ZipfInts(cfg.Seed+3, cfg.ProbeRows, int64(cfg.BuildRows), cfg.ZipfS)
	} else {
		in.ProbeKeys = UniformInts(cfg.Seed+3, cfg.ProbeRows, int64(cfg.BuildRows))
	}
	if cfg.Miss > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed + 4))
		for i := range in.ProbeKeys {
			if rng.Float64() < cfg.Miss {
				// Keys >= BuildRows never match.
				in.ProbeKeys[i] = int64(cfg.BuildRows) + rng.Int63n(int64(cfg.BuildRows)+1)
			}
		}
	}
	return in
}

// LineItemSchema returns the schema of the TPC-H-flavoured lineitem table
// used by the execution-model experiments (Q1/Q6 shape).
func LineItemSchema() *table.Schema {
	return table.MustSchema(
		table.ColumnDef{Name: "orderkey", Type: table.Int64},
		table.ColumnDef{Name: "quantity", Type: table.Float64},
		table.ColumnDef{Name: "extendedprice", Type: table.Float64},
		table.ColumnDef{Name: "discount", Type: table.Float64},
		table.ColumnDef{Name: "tax", Type: table.Float64},
		table.ColumnDef{Name: "returnflag", Type: table.String},
		table.ColumnDef{Name: "linestatus", Type: table.String},
		table.ColumnDef{Name: "shipdate", Type: table.Int64},
	)
}

// LineItem generates n rows in the shape of TPC-H lineitem. shipdate is a
// day number in [0, 2557) (seven years), quantities in [1, 51), discounts in
// [0, 0.1], matching the predicate constants of Q1/Q6.
func LineItem(seed int64, n int) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	flags := []string{"A", "N", "R"}
	statuses := []string{"F", "O"}
	b := table.NewBuilder("lineitem", LineItemSchema(), n)
	for i := 0; i < n; i++ {
		b.MustAppendRow(
			table.IntValue(int64(i/4)),
			table.FloatValue(1+float64(rng.Intn(50))),
			table.FloatValue(900+rng.Float64()*104000),
			table.FloatValue(float64(rng.Intn(11))/100),
			table.FloatValue(float64(rng.Intn(9))/100),
			table.StringValue(flags[rng.Intn(len(flags))]),
			table.StringValue(statuses[rng.Intn(len(statuses))]),
			table.IntValue(rng.Int63n(2557)),
		)
	}
	return b.Build()
}

// OrdersSchema returns the schema of the orders table used by join examples.
func OrdersSchema() *table.Schema {
	return table.MustSchema(
		table.ColumnDef{Name: "orderkey", Type: table.Int64},
		table.ColumnDef{Name: "custkey", Type: table.Int64},
		table.ColumnDef{Name: "totalprice", Type: table.Float64},
		table.ColumnDef{Name: "orderpriority", Type: table.String},
	)
}

// Orders generates n orders with unique orderkeys 0..n-1.
func Orders(seed int64, n int) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	prios := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	b := table.NewBuilder("orders", OrdersSchema(), n)
	for i := 0; i < n; i++ {
		b.MustAppendRow(
			table.IntValue(int64(i)),
			table.IntValue(rng.Int63n(int64(n/10+1))),
			table.FloatValue(1000+rng.Float64()*450000),
			table.StringValue(prios[rng.Intn(len(prios))]),
		)
	}
	return b.Build()
}

// OpKind is a YCSB-style operation type.
type OpKind int

const (
	// OpRead looks a key up.
	OpRead OpKind = iota
	// OpUpdate overwrites the value of an existing key.
	OpUpdate
	// OpInsert adds a new key.
	OpInsert
	// OpScan reads a short range starting at a key.
	OpScan
)

// String returns the op name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one key-value operation.
type Op struct {
	Kind OpKind
	Key  int64
	// ScanLen is the range length for OpScan.
	ScanLen int
}

// Mix is a YCSB-style workload mix; fractions must sum to at most 1, with the
// remainder going to reads.
type Mix struct {
	UpdateFrac float64
	InsertFrac float64
	ScanFrac   float64
	// ZipfS skews key popularity when > 0.
	ZipfS float64
}

// MixReadMostly is 95% reads / 5% updates with Zipf skew (YCSB-B shape).
func MixReadMostly() Mix { return Mix{UpdateFrac: 0.05, ZipfS: 1.2} }

// MixUpdateHeavy is 50/50 reads and updates (YCSB-A shape).
func MixUpdateHeavy() Mix { return Mix{UpdateFrac: 0.5, ZipfS: 1.2} }

// MixScanHeavy is 95% short scans / 5% inserts (YCSB-E shape).
func MixScanHeavy() Mix { return Mix{InsertFrac: 0.05, ScanFrac: 0.95, ZipfS: 1.2} }

// GenerateOps produces n operations over an initial keyspace of keyspace
// keys. Inserted keys extend the keyspace monotonically.
func GenerateOps(seed int64, n int, keyspace int64, mix Mix) []Op {
	if keyspace <= 0 {
		panic("workload: keyspace must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if mix.ZipfS > 0 {
		s := mix.ZipfS
		if s <= 1 {
			s = 1.0001
		}
		zipf = rand.NewZipf(rng, s, 1, uint64(keyspace-1))
	}
	nextInsert := keyspace
	pick := func() int64 {
		if zipf != nil {
			return int64((zipf.Uint64() * 0x9E3779B97F4A7C15) % uint64(keyspace))
		}
		return rng.Int63n(keyspace)
	}
	out := make([]Op, n)
	for i := range out {
		r := rng.Float64()
		switch {
		case r < mix.UpdateFrac:
			out[i] = Op{Kind: OpUpdate, Key: pick()}
		case r < mix.UpdateFrac+mix.InsertFrac:
			out[i] = Op{Kind: OpInsert, Key: nextInsert}
			nextInsert++
		case r < mix.UpdateFrac+mix.InsertFrac+mix.ScanFrac:
			out[i] = Op{Kind: OpScan, Key: pick(), ScanLen: 1 + rng.Intn(100)}
		default:
			out[i] = Op{Kind: OpRead, Key: pick()}
		}
	}
	return out
}
