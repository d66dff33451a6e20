package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"hwstar/internal/compress"
	"hwstar/internal/errs"
	"hwstar/internal/table"
)

// Segment file format, version 2. A segment is one table checkpointed
// columnar:
//
//	magic (8 bytes) | header length (u32 LE) | header JSON | column payloads | crc32c (u32 LE)
//
// The CRC covers every byte before it (magic, length, header, payloads), so
// a torn write, a truncated file, or a flipped byte anywhere is caught by
// one validation pass at read time (openEnvelope; a manifest wears the same
// envelope). The header gives each column's payload length, so the
// segment's size is known before a byte of it is written, and it streams
// through a fixed staging buffer (segStream) into commit.
// Every column is int64 and its payload is the FOR/RLE block stream the
// server scans (compress.WriteBinary): what is served is what is written,
// and a restart serves what it reads without re-encoding. The last magic
// byte is the version; version 1 (raw int64 payloads) has no reader.
var segMagic = [8]byte{'H', 'W', 'S', 'E', 'G', '1', 0, 2}

// crcTable is the Castagnoli polynomial — hardware-accelerated on every
// server CPU since SSE4.2, the checksum real storage engines use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segHeader is the JSON header of a segment file.
type segHeader struct {
	Table string   `json:"table"`
	Rows  int      `json:"rows"`
	Cols  []segCol `json:"cols"`
}

type segCol struct {
	Name  string `json:"name"`
	Type  string `json:"type"`
	Bytes int    `json:"bytes"` // payload length
}

// envelope is the bytes of a segment or manifest around its header and
// payloads: magic, header length, trailing crc.
const envelope = 8 + 4 + 4

// envelopeHead returns magic | u32 LE len(body) | body: an envelope up to
// its payloads and crc32c trailer.
func envelopeHead(magic [8]byte, body []byte) []byte {
	head := append(make([]byte, 0, envelope+len(body)), magic[:]...)
	return append(binary.LittleEndian.AppendUint32(head, uint32(len(body))), body...)
}

// openEnvelope validates raw's envelope — magic, crc32c, and a length
// field inside the file — and returns the head the length field delimits
// and the rest before the trailer. kind names the file in errors; any
// mismatch wraps errs.ErrCorrupted.
func openEnvelope(raw []byte, magic [8]byte, kind string) (head, rest []byte, err error) {
	if len(raw) < envelope {
		return nil, nil, fmt.Errorf("store: %s truncated at %d bytes: %w", kind, len(raw), errs.ErrCorrupted)
	}
	if !bytes.Equal(raw[:8], magic[:]) {
		return nil, nil, fmt.Errorf("store: bad %s magic: %w", kind, errs.ErrCorrupted)
	}
	body := raw[:len(raw)-4]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(raw[len(body):]); got != want {
		return nil, nil, fmt.Errorf("store: %s checksum mismatch (got %08x want %08x): %w", kind, got, want, errs.ErrCorrupted)
	}
	n := int(binary.LittleEndian.Uint32(raw[8:12]))
	if n < 0 || 12+n > len(body) {
		return nil, nil, fmt.Errorf("store: %s header length %d out of range: %w", kind, n, errs.ErrCorrupted)
	}
	return body[12 : 12+n], body[12+n:], nil
}

// blockStream returns column i of t, which must be a FOR/RLE block stream:
// the one column form the store holds, persists and hands back.
func blockStream(t *table.Table, i int) (*compress.Compressed, error) {
	c, ok := t.Column(i).(*compress.Compressed)
	if !ok {
		return nil, fmt.Errorf("store: table %q column %q is %T, not a block stream: %w",
			t.Name(), t.Schema().Column(i).Name, t.Column(i), errs.ErrInvalidInput)
	}
	return c, nil
}

// segmentHeader returns the head of t's segment — magic, header length and
// header JSON — and the segment's exact size.
func segmentHeader(t *table.Table) (head []byte, size int, err error) {
	hdr := segHeader{Table: t.Name(), Rows: t.NumRows(), Cols: make([]segCol, t.Schema().NumColumns())}
	for i := range hdr.Cols {
		c, err := blockStream(t, i)
		if err != nil {
			return nil, 0, err
		}
		hdr.Cols[i] = segCol{Name: t.Schema().Column(i).Name, Type: table.Int64.String(), Bytes: c.BinarySize()}
		size += hdr.Cols[i].Bytes
	}
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: encode header for %q: %w", t.Name(), err)
	}
	return envelopeHead(segMagic, hdrJSON), envelope + len(hdrJSON) + size, nil
}

// segStage is the size of the staging buffer a segment streams through:
// what a checkpoint holds of a segment, whatever the table's size.
const segStage = 64 << 10

// stages pools the staging buffers: one is held only while a segment streams.
var stages = sync.Pool{New: func() any { return new([segStage]byte) }}

// segStream is the one path a segment's bytes take: its head, each column's
// block stream through the staging buffer buf, then the crc32c of all of
// them, kept running over the bytes as they pass on to w.
type segStream struct {
	w   io.Writer
	buf []byte
	crc uint32
}

// Write passes p on to w; the checksum covers p as given.
func (s *segStream) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, crcTable, p)
	return s.w.Write(p)
}

// table streams t's segment; head is segmentHeader's.
func (s *segStream) table(head []byte, t *table.Table) error {
	if _, err := s.Write(head); err != nil {
		return err
	}
	for i := 0; i < t.Schema().NumColumns(); i++ {
		// segmentHeader vetted every column.
		if err := t.Column(i).(*compress.Compressed).WriteBinary(s, s.buf); err != nil {
			return err
		}
	}
	_, err := s.Write(binary.LittleEndian.AppendUint32(s.buf[:0], s.crc))
	return err
}

// decodeSegment validates the checksum and envelope of raw and rebuilds the
// table. Any mismatch — bad magic, truncation, CRC failure, inconsistent
// header — wraps errs.ErrCorrupted.
func decodeSegment(raw []byte) (*table.Table, error) {
	hdrJSON, payload, err := openEnvelope(raw, segMagic, "segment")
	if err != nil {
		return nil, err
	}
	var hdr segHeader
	if err := json.Unmarshal(hdrJSON, &hdr); err != nil {
		return nil, fmt.Errorf("store: segment header: %w: %w", err, errs.ErrCorrupted)
	}
	defs := make([]table.ColumnDef, len(hdr.Cols))
	for i, c := range hdr.Cols {
		if c.Type != table.Int64.String() {
			return nil, fmt.Errorf("store: table %q column %q: unknown column type %q: %w", hdr.Table, c.Name, c.Type, errs.ErrCorrupted)
		}
		defs[i] = table.ColumnDef{Name: c.Name, Type: table.Int64}
	}
	schema, err := table.NewSchema(defs...)
	if err != nil {
		return nil, fmt.Errorf("store: segment schema: %w: %w", err, errs.ErrCorrupted)
	}
	cols := make([]table.ColumnData, len(defs))
	for i, def := range defs {
		n := hdr.Cols[i].Bytes
		if n < 0 || n > len(payload) {
			return nil, fmt.Errorf("store: table %q column %q: payload truncated (need %d of %d bytes): %w",
				hdr.Table, def.Name, n, len(payload), errs.ErrCorrupted)
		}
		c, err := compress.UnmarshalColumn(payload[:n])
		if err != nil {
			return nil, fmt.Errorf("store: table %q column %q: %w", hdr.Table, def.Name, err)
		}
		if c.Len() != hdr.Rows {
			return nil, fmt.Errorf("store: table %q column %q: block stream holds %d values, header says %d rows: %w",
				hdr.Table, def.Name, c.Len(), hdr.Rows, errs.ErrCorrupted)
		}
		cols[i], payload = c, payload[n:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("store: %d trailing payload bytes: %w", len(payload), errs.ErrCorrupted)
	}
	t, err := table.FromColumns(hdr.Table, schema, cols)
	if err != nil {
		return nil, fmt.Errorf("store: rebuild table: %w: %w", err, errs.ErrCorrupted)
	}
	if t.NumRows() != hdr.Rows {
		return nil, fmt.Errorf("store: table %q has %d rows, header says %d: %w", hdr.Table, t.NumRows(), hdr.Rows, errs.ErrCorrupted)
	}
	return t, nil
}

// reads pools readSegment's whole-file buffers: the table decodeSegment
// builds copies out everything it keeps, so a buffer is free once it returns.
var reads = sync.Pool{New: func() any { return new([]byte) }}

// readSegment reads the segment file at path in one read of its size,
// validates it and rebuilds the table, returning the bytes validated.
// Corruption of any kind, and a file that will not open, wraps
// errs.ErrCorrupted.
func readSegment(path string) (*table.Table, int64, error) {
	name := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: open segment %s: %w: %w", name, err, errs.ErrCorrupted)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: stat segment %s: %w", name, err)
	}
	buf := reads.Get().(*[]byte)
	defer reads.Put(buf)
	if int64(cap(*buf)) < fi.Size() {
		*buf = make([]byte, fi.Size())
	}
	raw := (*buf)[:fi.Size()]
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, 0, fmt.Errorf("store: read segment %s: %w", name, err)
	}
	t, err := decodeSegment(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	return t, int64(len(raw)), nil
}
