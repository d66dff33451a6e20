package v1

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hwstar/internal/hw"
	"hwstar/internal/queries"
	"hwstar/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/query_response_*.golden from the encoding/json path")

// responseCase is one call of the response mapping.
type responseCase struct {
	name             string
	q                QueryRequest
	tenant, priority string
	wallMs           float64
	resp             serve.Response
}

// reference is the wire as encoding/json defines it: the typed mapping, then
// the reflective encoder the frontend used to serve with.
func (c *responseCase) reference() ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(ResponseFrom(&c.q, c.tenant, c.priority, c.wallMs, c.resp))
	return buf.Bytes(), err
}

// diff encodes c both ways and describes the first disagreement, "" if none:
// the same bytes after the same prefix, or the same error.
func (c *responseCase) diff() string {
	want, wantErr := c.reference()
	const prefix = "kept:"
	got, gotErr := AppendResponse([]byte(prefix), &c.q, c.tenant, c.priority, c.wallMs, c.resp)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			return "AppendResponse error " + errText(gotErr) + ", encoding/json error " + errText(wantErr)
		}
		return ""
	case !bytes.HasPrefix(got, []byte(prefix)):
		return "AppendResponse overwrote the bytes already in dst"
	case !bytes.Equal(got[len(prefix):], want):
		return "AppendResponse wrote\n" + string(got[len(prefix):]) + "encoding/json wrote\n" + string(want)
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

var q1Rows = []queries.Q1Row{
	{ReturnFlag: "A", LineStatus: "F", SumQty: 37734107, SumPrice: 56586554400.73, SumDiscPrice: 53758257134.87,
		SumCharge: 55909065222.827692, AvgQty: 25.522005853257337, AvgPrice: 38273.129734621674, AvgDisc: 0.049985295838397614, Count: 1478493},
	{ReturnFlag: "N", LineStatus: "O", SumQty: 1e21, SumPrice: 1.5e-7, SumDiscPrice: -2.5e-9, SumCharge: 123456789012345680000,
		AvgQty: 0, AvgPrice: -0.000001, AvgDisc: 1e-6, Count: 0},
}

// goldenCases has one response per op and per envelope variation. Their
// encodings under testdata/ were written by the reference path at the commit
// before AppendResponse existed: the wire did not move when it took over.
func goldenCases() []responseCase {
	return []responseCase{
		{name: "scan", q: QueryRequest{Op: OpScan, Table: "events"}, tenant: "acme", priority: "interactive", wallMs: 1.406,
			resp: serve.Response{Cost: cost(183212.5), BatchSize: 3, Sum: -7234981234}},
		{name: "join", q: QueryRequest{Op: OpJoin, TraceID: "t-17"}, tenant: "acme", priority: "batch", wallMs: 12.25,
			resp: serve.Response{Cost: cost(9.1234567e6), BatchSize: 1, Matches: 8192, Checksum: 0xbeef00112233}},
		{name: "join_no_matches", q: QueryRequest{Op: OpJoin}, tenant: "acme", priority: "interactive", wallMs: 0,
			resp: serve.Response{Cost: cost(0), BatchSize: 1, Checksum: math.MaxUint64}},
		{name: "group_sum", q: QueryRequest{Op: OpGroupSum}, tenant: "t2", priority: "interactive", wallMs: 3.5,
			resp: serve.Response{Cost: cost(4.5e6), BatchSize: 1, Groups: map[int64]int64{
				0: 1, -1: 2, 1: -2, 2: 3, 10: 4, 100: 5, 19: 6, 20: 7, -10: 8, -2: 9, 42: -3, 4095: 499500, 1000000007: 12,
				math.MinInt64: math.MaxInt64, math.MaxInt64: math.MinInt64, math.MinInt64 + 1: 0, 922337203685477580: -1,
			}}},
		{name: "group_sum_empty", q: QueryRequest{Op: OpGroupSum}, tenant: "t2", priority: "interactive", wallMs: 0.001,
			resp: serve.Response{Cost: cost(12), BatchSize: 1, Groups: map[int64]int64{}}},
		{name: "q1", q: QueryRequest{Op: OpQ1, Table: "lineitem"}, tenant: "acme", priority: "batch", wallMs: 88.125,
			resp: serve.Response{Cost: cost(1.25e9), BatchSize: 1, Q1Rows: q1Rows}},
		{name: "q6", q: QueryRequest{Op: OpQ6, Table: "lineitem"}, tenant: "acme", priority: "interactive", wallMs: 7.75,
			resp: serve.Response{Cost: cost(3.3e8), BatchSize: 1, Revenue: 1.2314107822830005e+08}},
		{name: "partial", q: QueryRequest{Op: OpScan, Table: "events"}, tenant: "acme", priority: "interactive", wallMs: 2.5,
			resp: serve.Response{Cost: cost(91000), BatchSize: 2, Sum: 412, Partial: true, CoveredFraction: 0.6666666666666666}},
		{name: "spilled", q: QueryRequest{Op: OpGroupSum}, tenant: "acme", priority: "batch", wallMs: 41,
			resp: serve.Response{Cost: cost(7.7e7), BatchSize: 1, Spilled: true, SpillBytes: 1048576, Groups: map[int64]int64{7: 70, 8: 80}}},
		{name: "trace_escapes", q: QueryRequest{Op: OpScan, TraceID: "a\"b\\c<d>&e\n\tf g\x7fh\xffi é"}, tenant: "ten\"ant", priority: "interactive", wallMs: 1e-7,
			resp: serve.Response{Cost: cost(1e21), BatchSize: 1, Sum: math.MinInt64}},
	}
}

func cost(simCycles float64) hw.Cost { return hw.Cost{SimCycles: simCycles} }

// TestQueryResponseGoldens: the committed bytes, the encoding/json path and
// AppendResponse agree on every case.
func TestQueryResponseGoldens(t *testing.T) {
	for _, c := range goldenCases() {
		path := filepath.Join("testdata", "query_response_"+c.name+".golden")
		ref, err := c.reference()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if *update {
			if err := os.WriteFile(path, ref, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, golden) {
			t.Errorf("%s: ResponseFrom + encoding/json no longer write the golden\ngot  %swant %s", c.name, ref, golden)
		}
		got, err := AppendResponse(nil, &c.q, c.tenant, c.priority, c.wallMs, c.resp)
		if err != nil || !bytes.Equal(got, golden) {
			t.Errorf("%s: AppendResponse (err %v)\ngot  %swant %s", c.name, err, got, golden)
		}
	}
}

// genResponse draws one response, every op and envelope variation reachable:
// strings that need each kind of escape, floats on both sides of both format
// thresholds, group keys of every length and sign, and — rarely — a float
// JSON cannot carry in each of the places one can appear.
func genResponse(rng *rand.Rand) responseCase {
	strs := []string{"", "acme", "interactive", "batch", "t-17", "a b", "q\"uote", "back\\slash", "<tag>&", "line\nfeed",
		"tab\t", "é", " ", "\x7f", "bad\xff", "\x00", "日本語", "plain-ascii_0123456789.~"}
	str := func() string { return strs[rng.Intn(len(strs))] }
	float := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Int63n(1 << 40))
		case 3:
			return rng.Float64() * 1e-6
		case 4:
			return rng.Float64() * 2e21
		case 5:
			return [...]float64{1e-6, 1e21, 1e-7, 9.999999999999999e20, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-9, 1e-10, 1e100}[rng.Intn(9)]
		case 6:
			if rng.Intn(4) == 0 {
				return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
			return -rng.ExpFloat64()
		default:
			return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52) // any finite normal
		}
	}
	key := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return [...]int64{0, -1, math.MinInt64, math.MaxInt64, 10, 100, 1000}[rng.Intn(7)]
		case 1:
			return rng.Int63n(4096)
		case 2:
			return -rng.Int63n(4096)
		default:
			return int64(rng.Uint64()) >> uint(rng.Intn(64))
		}
	}
	ops := []string{OpScan, OpJoin, OpGroupSum, OpQ1, OpQ6, "", "bogus"}
	c := responseCase{
		q:      QueryRequest{Op: ops[rng.Intn(len(ops))], TraceID: str()},
		tenant: str(), priority: str(), wallMs: float(),
		resp: serve.Response{
			BatchSize: rng.Intn(64) - 1, Spilled: rng.Intn(2) == 0, SpillBytes: key(),
			Sum: key(), Matches: rng.Int63n(3) * key(), Checksum: rng.Uint64() >> uint(rng.Intn(64)),
			Partial: rng.Intn(3) == 0, CoveredFraction: float(),
		},
	}
	c.resp.SimCycles = float()
	if rng.Intn(2) == 0 {
		c.resp.Revenue = float()
	}
	if n := rng.Intn(4); n > 0 {
		c.resp.Groups = make(map[int64]int64)
		for i := rng.Intn(1 << uint(3*n)); i > 0; i-- {
			c.resp.Groups[key()] = key()
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		c.resp.Q1Rows = append(c.resp.Q1Rows, queries.Q1Row{ReturnFlag: str(), LineStatus: str(), SumQty: float(), SumPrice: float(),
			SumDiscPrice: float(), SumCharge: float(), AvgQty: float(), AvgPrice: float(), AvgDisc: float(), Count: key()})
	}
	return c
}

// TestAppendResponseMatchesStdlib: over seeded generated responses the append
// encoder and the encoding/json path agree, on bytes and on errors.
func TestAppendResponseMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var failed, refused int
	for i := 0; i < 4000 && failed < 5; i++ {
		c := genResponse(rng)
		if _, err := c.reference(); err != nil {
			refused++
		}
		if d := c.diff(); d != "" {
			failed++
			t.Errorf("response %d (op %q): %s", i, c.q.Op, d)
		}
	}
	if refused == 0 {
		t.Error("no generated response carried a non-finite float: error agreement went untested")
	}
}

// FuzzAppendResponse is the same differential with the fuzzer choosing every
// scalar; groups holds (key, sum) pairs, sixteen bytes each.
func FuzzAppendResponse(f *testing.F) {
	f.Add(OpGroupSum, "acme", "interactive", "t-1", 1.5e6, 0.25, 1, false, int64(0), int64(0), int64(0), uint64(0), 0.0, false, 0.0,
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), 42))
	f.Add(OpJoin, "a\"b", "batch", "<&>", 1e21, 1e-7, 2, true, int64(4096), int64(-1), int64(77), uint64(0xbeef), math.Inf(1), true, 0.5, []byte(nil))
	f.Add(OpQ1, "é", "", "", math.NaN(), 3.0, 0, false, int64(0), int64(0), int64(0), uint64(0), -1e-9, false, 0.0, []byte("0123456789abcdef"))
	f.Add(OpQ6, "", "", "\xff", 0.0, 0.0, 0, false, int64(0), int64(0), int64(0), uint64(0), 1.25e8, true, math.NaN(), []byte(nil))
	f.Add(OpScan, "t", "p", "", 12.0, 1.0, 1, false, int64(0), int64(math.MinInt64), int64(0), uint64(0), 0.0, false, 0.0, []byte(nil))
	f.Fuzz(func(t *testing.T, op, tenant, priority, traceID string, simCycles, wallMs float64, batch int, spilled bool,
		spillBytes, sum, matches int64, checksum uint64, revenue float64, partial bool, covered float64, groups []byte) {
		c := responseCase{
			q: QueryRequest{Op: op, TraceID: traceID}, tenant: tenant, priority: priority, wallMs: wallMs,
			resp: serve.Response{BatchSize: batch, Spilled: spilled, SpillBytes: spillBytes, Sum: sum, Matches: matches,
				Checksum: checksum, Revenue: revenue, Partial: partial, CoveredFraction: covered},
		}
		c.resp.SimCycles = simCycles
		if len(groups) >= 16 {
			c.resp.Groups = make(map[int64]int64, len(groups)/16)
			for ; len(groups) >= 16; groups = groups[16:] {
				c.resp.Groups[int64(binary.LittleEndian.Uint64(groups))] = int64(binary.LittleEndian.Uint64(groups[8:]))
			}
		}
		if matches != 0 { // any row at all: the row's fields are the scalars again
			c.resp.Q1Rows = []queries.Q1Row{{ReturnFlag: tenant, LineStatus: traceID, SumQty: wallMs, SumPrice: revenue,
				SumDiscPrice: covered, SumCharge: simCycles, AvgQty: -wallMs, AvgPrice: 1 / revenue, AvgDisc: covered * 1e-7, Count: sum}}
		}
		if d := c.diff(); d != "" {
			t.Fatal(d)
		}
	})
}

var benchSink []byte

// BenchmarkAppendResponse encodes hwperf's group-sum answer (4096 groups)
// and a scan answer into a reused buffer.
func BenchmarkAppendResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := make(map[int64]int64, 4096)
	for k := int64(0); k < 4096; k++ {
		groups[k] = rng.Int63n(16000)
	}
	for _, c := range []responseCase{
		{name: "scan", q: QueryRequest{Op: OpScan}, tenant: "bench", priority: "interactive", wallMs: 1.4, resp: serve.Response{Cost: cost(183212.5), BatchSize: 1, Sum: 7234981234}},
		{name: "group-sum", q: QueryRequest{Op: OpGroupSum}, tenant: "bench", priority: "interactive", wallMs: 3.5, resp: serve.Response{Cost: cost(4.5e6), BatchSize: 1, Groups: groups}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				if benchSink, err = AppendResponse(benchSink[:0], &c.q, c.tenant, c.priority, c.wallMs, c.resp); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(benchSink)))
		})
	}
}
