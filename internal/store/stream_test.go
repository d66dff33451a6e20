package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// encodeSegment serializes t into the segment format: the stream a
// SegmentWriter writes, into memory.
func encodeSegment(t *table.Table) ([]byte, error) {
	head, size, err := segmentHeader(t)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	s := &segStream{w: &out, buf: make([]byte, min(size, segStage)), flip: -1, keep: size}
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
		w, err := s.CreateSegment(tbl.Name(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.WriteTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
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

// TestStreamedSegmentFaultParity checks that injected faults leave the
// streamed file exactly as they left the whole image, on a segment whose
// middle byte is past the first staging buffer: a checksum flip is the image
// with byte size/2 XORed by 0x40 (the trailer still the clean CRC), a torn
// write is the image's first size/2 bytes, and in both cases recovery falls
// back to the previous version.
func TestStreamedSegmentFaultParity(t *testing.T) {
	big := multiChunkTable(t)
	img := segmentImage(t, big)
	if len(img)/2 < segStage {
		t.Fatalf("middle byte %d is in the first staging buffer", len(img)/2)
	}
	flipped := append([]byte(nil), img...)
	flipped[len(img)/2] ^= 0x40
	cases := []struct {
		name string
		cfg  fault.Config
		want []byte
	}{
		// TornWrite is armed too: with a budget of one fault only the first
		// draw fires, so this also pins the flip's draw ahead of the tear's.
		{"flip", fault.Config{ChecksumFlipSites: map[string]float64{"seg:big": 1}, TornWriteSites: map[string]float64{"seg:big": 1}}, flipped},
		{"tear", fault.Config{TornWriteSites: map[string]float64{"seg:big": 1}}, img[:len(img)/2]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, Options{Dir: dir})
			v1 := testTable("big", 40, 1)
			s.Put(v1)
			mustCheckpoint(t, s)
			tc.cfg.Seed, tc.cfg.MaxFaults = 7, 1
			s.opts.Faults = fault.New(tc.cfg)
			s.Put(big)
			mustCheckpoint(t, s) // both faults report success
			if got := segFile(t, dir, "big", 2); !bytes.Equal(got, tc.want) {
				t.Fatalf("faulted file of %d bytes differs from the %d-byte reference", len(got), len(tc.want))
			}
			r := mustOpen(t, Options{Dir: dir})
			if rec := r.Recovery(); rec.ManifestVersion != 1 || rec.Fallbacks != 1 {
				t.Fatalf("recovery = %+v, want fallback to version 1", rec)
			}
			got, err := r.Load(context.Background(), "big")
			if err != nil {
				t.Fatal(err)
			}
			sameContents(t, v1, got)
		})
	}
}

// TestCheckpointChargesStagingBuffer pins the governor charge of a segment
// larger than the staging buffer: the checkpoint holds the buffer, not the
// segment, so the reservation peaks at exactly segStage bytes.
func TestCheckpointChargesStagingBuffer(t *testing.T) {
	gov := mem.NewGovernor(mem.Config{BudgetBytes: 1 << 20, PerQueryBytes: 512})
	res, err := gov.Reserve(512)
	if err != nil {
		t.Fatal(err)
	}
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
