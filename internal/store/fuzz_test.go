package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"strconv"
	"testing"

	"hwstar/internal/compress"
	"hwstar/internal/errs"
	"hwstar/internal/table"
)

// fuzzTables are the seed tables of FuzzDecodeSegment: the store tests'
// table, and int64 relations in the block shapes compress's property test
// draws (empty, short last block, constant, run-heavy, full-width, the ends
// of the domain).
func fuzzTables(t testing.TB) []*table.Table {
	ramp := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	rels := [][][]int64{
		{{}, {}},
		{{7}},
		{ramp(1100, func(i int) int64 { return int64(i % 97) }), ramp(1100, func(i int) int64 { return int64(i/300) << 40 })},
		{ramp(40, func(int) int64 { return -7 }), ramp(40, func(i int) int64 { return int64(i) * math.MaxInt64 })},
		{ramp(20, func(i int) int64 { return math.MinInt64 + int64(i%2)*-1 })},
	}
	tables := []*table.Table{testTable("typed", 30, 1), testTable("typed-empty", 0, 1)}
	for i, cols := range rels {
		tbl, err := TableFromCols("rel"+strconv.Itoa(i), cols)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	return tables
}

// reseal recomputes the crc32c trailer of a magic|length|body|crc envelope,
// so mutated bodies reach the decoder behind the checksum.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crcTable))
	return out
}

// sealSegment wraps a hand-built header and payload in a valid envelope: the
// way to put a well-checksummed lie in front of decodeSegment.
func sealSegment(t testing.TB, hdr segHeader, payload []byte) []byte {
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), segMagic[:]...)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(hdrJSON)))
	raw = append(append(raw, hdrJSON...), payload...)
	return reseal(append(raw, 0, 0, 0, 0))
}

// lyingSegments are checksum-valid segments whose header disagrees with
// their payload; each must be rejected as corrupt.
func lyingSegments(t testing.TB) map[string][]byte {
	col := columnBinary(compress.Encode([]int64{1, 2, 3}))
	floats := make([]byte, 3*8)
	i64 := func(n int) []segCol { return []segCol{{Name: "k", Type: "int64", Bytes: n}} }
	return map[string][]byte{
		"rows beyond the block stream": sealSegment(t, segHeader{Table: "x", Rows: 4, Cols: i64(len(col))}, col),
		"negative rows":                sealSegment(t, segHeader{Table: "x", Rows: -3, Cols: i64(len(col))}, col),
		"column bytes overrun":         sealSegment(t, segHeader{Table: "x", Rows: 3, Cols: i64(len(col) + 1)}, col),
		"column bytes negative":        sealSegment(t, segHeader{Table: "x", Rows: 3, Cols: i64(-1)}, col),
		"column bytes short":           sealSegment(t, segHeader{Table: "x", Rows: 3, Cols: i64(len(col) - 8)}, col),
		"trailing payload":             sealSegment(t, segHeader{Table: "x", Rows: 3, Cols: i64(len(col))}, append(col[:len(col):len(col)], 0)),
		"unknown type":                 sealSegment(t, segHeader{Table: "x", Rows: 3, Cols: []segCol{{Name: "k", Type: "int32", Bytes: len(col)}}}, col),
		"duplicate column":             sealSegment(t, segHeader{Table: "x", Rows: 3, Cols: append(i64(len(col)), i64(len(col))...)}, append(col[:len(col):len(col)], col...)),
		"float rows huge":              sealSegment(t, segHeader{Table: "x", Rows: 1 << 61, Cols: []segCol{{Name: "v", Type: "float64", Bytes: 0}}}, nil),
		"float rows short":             sealSegment(t, segHeader{Table: "x", Rows: 2, Cols: []segCol{{Name: "v", Type: "float64", Bytes: len(floats)}}}, floats),
		"string dictionary huge":       sealSegment(t, segHeader{Table: "x", Rows: 0, Cols: []segCol{{Name: "s", Type: "string", Bytes: 4}}}, []byte{0xff, 0xff, 0xff, 0x7f}),
		"string code out of range":     sealSegment(t, segHeader{Table: "x", Rows: 1, Cols: []segCol{{Name: "s", Type: "string", Bytes: 8}}}, []byte{0, 0, 0, 0, 5, 0, 0, 0}),
		"no columns but rows":          sealSegment(t, segHeader{Table: "x", Rows: 9}, nil),
		"header length beyond file":    reseal(append(append(append([]byte(nil), segMagic[:]...), 0xff, 0xff, 0xff, 0xff), 0, 0, 0, 0)),
		"version 1 magic":              reseal(append([]byte{'H', 'W', 'S', 'E', 'G', '1', 0, 1}, make([]byte, 8)...)),
	}
}

// TestDecodeSegmentRejectsLyingHeaders is the deterministic half of
// FuzzDecodeSegment: a segment whose checksum holds but whose header lies
// about its payload is corruption, not a table and not a panic.
func TestDecodeSegmentRejectsLyingHeaders(t *testing.T) {
	for name, raw := range lyingSegments(t) {
		if tbl, err := decodeSegment(raw); !errors.Is(err, errs.ErrCorrupted) || tbl != nil {
			t.Errorf("%s: table %v, err %v; want nil, ErrCorrupted", name, tbl != nil, err)
		}
	}
}

// FuzzDecodeSegment drives the store's disk trust boundary: arbitrary bytes
// as a segment file and as a manifest, as found and with the checksum
// resealed over them. Neither decoder may panic, and every rejection must
// wrap errs.ErrCorrupted — recovery's fallback keys on it.
func FuzzDecodeSegment(f *testing.F) {
	for _, tbl := range fuzzTables(f) {
		raw, err := encodeSegment(tbl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range lyingSegments(f) {
		f.Add(raw)
	}
	man, err := encodeManifest(&Manifest{Version: 3, Tables: map[string]TableEntry{
		"a": {Segment: "a-00000003.seg", Rows: 10, Bytes: 80, Tier: TierHot},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(man)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, reseal(data)} {
			if tbl, err := decodeSegment(raw); err != nil {
				if !errors.Is(err, errs.ErrCorrupted) {
					t.Fatalf("segment rejection does not wrap ErrCorrupted: %v", err)
				}
			} else {
				// An accepted segment is a table every reader can walk.
				for i := 0; i < tbl.NumRows(); i++ {
					tbl.Row(i)
				}
				if _, err := encodeSegment(tbl); err != nil {
					t.Fatalf("accepted segment does not re-encode: %v", err)
				}
			}
			if _, err := decodeManifest(raw); err != nil && !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("manifest rejection does not wrap ErrCorrupted: %v", err)
			}
		}
	})
}
