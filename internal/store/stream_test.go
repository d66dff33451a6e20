package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hwstar/internal/compress"
	"hwstar/internal/fault"
	"hwstar/internal/mem"
	"hwstar/internal/table"
)

// columnBinary is c's binary form, written in one piece.
func columnBinary(c *compress.Compressed) []byte {
	var b bytes.Buffer
	if err := c.WriteBinary(&b, make([]byte, max(c.BinarySize(), 32))); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// appendSegment is the whole-image writer segments were written with before
// they streamed: it appends t's segment image, checksum included, to dst.
// The streamed bytes are checked against it.
func appendSegment(dst, hdrJSON []byte, t *table.Table) []byte {
	start := len(dst)
	dst = append(dst, segMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdrJSON)))
	dst = append(dst, hdrJSON...)
	for i := 0; i < t.Schema().NumColumns(); i++ {
		dst = append(dst, columnBinary(t.Column(i).(*compress.Compressed))...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// encodeSegment serializes t into the segment format: the stream
// writeSegment commits, into memory.
func encodeSegment(t *table.Table) ([]byte, error) {
	head, size, err := segmentHeader(t)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	s := &segStream{w: &out, buf: make([]byte, min(size, segStage))}
	if err := s.table(head, t); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// segmentImage is the reference image of t's segment.
func segmentImage(t *testing.T, tbl *table.Table) []byte {
	t.Helper()
	head, size, err := segmentHeader(tbl)
	if err != nil {
		t.Fatal(err)
	}
	img := appendSegment(make([]byte, 0, size), head[12:], tbl)
	if len(img) != size {
		t.Fatalf("image of %q is %d bytes, segmentHeader sized it %d", tbl.Name(), len(img), size)
	}
	return img
}

// mustCols decodes tbl's columns: a whole-table comparison far quicker than
// sameContents' row by row one.
func mustCols(t *testing.T, tbl *table.Table) [][]int64 {
	t.Helper()
	cols, ok := ColsFromTable(tbl)
	if !ok {
		t.Fatalf("%q is not a table of block streams", tbl.Name())
	}
	return cols
}

// segFile reads the committed segment of tbl at version.
func segFile(t *testing.T, dir, tbl string, version uint64) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%08d.seg", tbl, version)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// multiChunkTable's segment spans more than three staging buffers, and its
// column boundaries fall inside them.
func multiChunkTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := testTable("big", 100000, 3)
	head, size, err := segmentHeader(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if size < 3*segStage {
		t.Fatalf("fixture segment is %d bytes, want at least three %d-byte staging buffers", size, segStage)
	}
	off := len(head)
	for i := 0; i < tbl.Schema().NumColumns()-1; i++ {
		off += tbl.Column(i).(*compress.Compressed).BinarySize()
		if off%segStage == 0 {
			t.Fatalf("fixture column %d ends on a staging-buffer boundary", i)
		}
	}
	return tbl
}

// TestStreamedSegmentMatchesImage pins the streamed segment writer to the
// whole-image one it replaced: for a table spanning several staging
// buffers, one whose column boundaries fall inside its only chunk, and a
// one-row table, the committed file and encodeSegment's bytes are the image.
func TestStreamedSegmentMatchesImage(t *testing.T) {
	tables := []*table.Table{multiChunkTable(t), testTable("small", 1100, 1), testTable("one", 1, 2)}
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for _, tbl := range tables {
		img := segmentImage(t, tbl)
		if _, err := s.writeSegment(tbl.Name(), tbl, 1, nil); err != nil {
			t.Fatal(err)
		}
		if got := segFile(t, dir, tbl.Name(), 1); !bytes.Equal(got, img) {
			t.Errorf("%s: streamed file of %d bytes differs from the %d-byte image", tbl.Name(), len(got), len(img))
		}
		if raw, err := encodeSegment(tbl); err != nil || !bytes.Equal(raw, img) {
			t.Errorf("%s: encodeSegment wrote %d bytes (err %v) that differ from the %d-byte image", tbl.Name(), len(raw), err, len(img))
		}
	}
}

// TestStreamedSegmentFaultParity checks that injected faults leave every
// file kind commit writes exactly as they left the whole image, the segment
// on a size whose middle byte is past the first staging buffer: a checksum
// flip is the image with byte size/2 XORed by 0x40 (a segment's or
// manifest's trailer still the clean CRC), and a torn write is the image's
// first size/2 bytes. Recovery lands where each fault leaves it: a faulted
// segment or manifest falls back to version 1, and a faulted CURRENT names
// no manifest, so every manifest is tried and version 2 recovers.
func TestStreamedSegmentFaultParity(t *testing.T) {
	big := multiChunkTable(t)
	seg := segmentImage(t, big)
	if len(seg)/2 < segStage {
		t.Fatalf("middle byte %d is in the first staging buffer", len(seg)/2)
	}
	man, err := encodeManifest(&Manifest{Version: 2, Tables: map[string]TableEntry{"big": tableEntry(segmentName("big", 2), big)}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := testTable("big", 40, 1)
	flipped := func(img []byte) []byte {
		out := append([]byte(nil), img...)
		out[len(img)/2] ^= 0x40
		return out
	}
	files := []struct {
		prefix, site, file string // prefix names the subtests
		img                []byte
		version            uint64 // recovered
		want               *table.Table
	}{
		{"", "seg:big", segmentName("big", 2), seg, 1, v1},
		{"manifest-", "manifest", manifestName(2), man, 1, v1},
		{"current-", "current", currentName, []byte(manifestName(2) + "\n"), 2, big},
	}
	for _, f := range files {
		faults := []struct {
			name string
			cfg  fault.Config
			want []byte
		}{
			// TornWrite is armed too: with a budget of one fault only the
			// first draw fires, so this also pins the flip's draw ahead of
			// the tear's.
			{"flip", fault.Config{ChecksumFlipSites: map[string]float64{f.site: 1}, TornWriteSites: map[string]float64{f.site: 1}}, flipped(f.img)},
			{"tear", fault.Config{TornWriteSites: map[string]float64{f.site: 1}}, f.img[:len(f.img)/2]},
		}
		for _, tc := range faults {
			t.Run(f.prefix+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				s := mustOpen(t, Options{Dir: dir})
				s.Put(v1)
				mustCheckpoint(t, s)
				tc.cfg.Seed, tc.cfg.MaxFaults = 7, 1
				s.opts.Faults = fault.New(tc.cfg)
				s.Put(big)
				mustCheckpoint(t, s) // both faults report success
				got, err := os.ReadFile(filepath.Join(dir, f.file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, tc.want) {
					t.Fatalf("faulted %s of %d bytes differs from the %d-byte reference", f.file, len(got), len(tc.want))
				}
				r := mustOpen(t, Options{Dir: dir})
				if rec := r.Recovery(); rec.ManifestVersion != f.version || rec.Fallbacks != int(2-f.version) {
					t.Fatalf("recovery = %+v, want version %d", rec, f.version)
				}
				back, err := r.Load(context.Background(), "big")
				if err != nil {
					t.Fatal(err)
				}
				if got, want := mustCols(t, back), mustCols(t, f.want); !reflect.DeepEqual(got, want) {
					t.Fatalf("recovered %q is not the %d-row version", back.Name(), f.want.NumRows())
				}
			})
		}
	}
}

// TestCheckpointChargesStagingBuffer pins the governor charge of a segment
// larger than the staging buffer: the checkpoint holds the buffer, not the
// segment, so the reservation peaks at exactly segStage bytes.
func TestCheckpointChargesStagingBuffer(t *testing.T) {
	res := mem.NewGovernor(mem.Config{BudgetBytes: 1 << 20}).Reserve("")
	defer res.Release()
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Put(multiChunkTable(t))
	st, err := s.Checkpoint(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBytes() != segStage || st.Bytes <= segStage {
		t.Fatalf("reservation peaked at %d bytes for a %d-byte segment, want %d", res.PeakBytes(), st.Bytes, segStage)
	}
}
