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

	"hwstar/internal/compress"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/table"
)

// Segment file format, version 2. A segment is one table checkpointed
// columnar:
//
//	magic (8 bytes) | header length (u32 LE) | header JSON | column payloads | crc32c (u32 LE)
//
// The CRC covers every byte before it (magic, length, header, payloads), so
// a torn write, a truncated file, or a flipped byte anywhere is caught by
// one validation pass at read time. The header gives each column's payload
// length, so the image is sized exactly before a byte of it is written.
// Every column is int64 and its payload is the FOR/RLE block stream the
// server scans (compress.AppendBinary): what is served is what is written,
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

// segEnvelope is the bytes of a segment around its header and payloads:
// magic, header length, trailing crc.
const segEnvelope = 8 + 4 + 4

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

// segmentHeader returns t's encoded header and the exact size of its
// segment image.
func segmentHeader(t *table.Table) (hdrJSON []byte, size int, err error) {
	hdr := segHeader{Table: t.Name(), Rows: t.NumRows(), Cols: make([]segCol, t.Schema().NumColumns())}
	for i := range hdr.Cols {
		c, err := blockStream(t, i)
		if err != nil {
			return nil, 0, err
		}
		hdr.Cols[i] = segCol{Name: t.Schema().Column(i).Name, Type: table.Int64.String(), Bytes: c.BinarySize()}
		size += hdr.Cols[i].Bytes
	}
	hdrJSON, err = json.Marshal(hdr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: encode header for %q: %w", t.Name(), err)
	}
	return hdrJSON, segEnvelope + len(hdrJSON) + size, nil
}

// appendSegment appends t's segment image, checksum included, to dst;
// hdrJSON is segmentHeader's.
func appendSegment(dst, hdrJSON []byte, t *table.Table) []byte {
	start := len(dst)
	dst = append(dst, segMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdrJSON)))
	dst = append(dst, hdrJSON...)
	for i := 0; i < t.Schema().NumColumns(); i++ {
		dst = t.Column(i).(*compress.Compressed).AppendBinary(dst) // segmentHeader vetted it
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// encodeSegment serializes t into the segment format in one allocation of
// the image's exact size.
func encodeSegment(t *table.Table) ([]byte, error) {
	hdrJSON, size, err := segmentHeader(t)
	if err != nil {
		return nil, err
	}
	return appendSegment(make([]byte, 0, size), hdrJSON, t), nil
}

// decodeSegment validates the checksum and envelope of raw and rebuilds the
// table. Any mismatch — bad magic, truncation, CRC failure, inconsistent
// header — wraps errs.ErrCorrupted.
func decodeSegment(raw []byte) (*table.Table, error) {
	if len(raw) < segEnvelope {
		return nil, fmt.Errorf("store: segment truncated at %d bytes: %w", len(raw), errs.ErrCorrupted)
	}
	if !bytes.Equal(raw[:8], segMagic[:]) {
		return nil, fmt.Errorf("store: bad segment magic: %w", errs.ErrCorrupted)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("store: segment checksum mismatch (got %08x want %08x): %w", got, want, errs.ErrCorrupted)
	}
	hdrLen := int(binary.LittleEndian.Uint32(raw[8:12]))
	if hdrLen < 0 || 12+hdrLen > len(body) {
		return nil, fmt.Errorf("store: segment header length %d out of range: %w", hdrLen, errs.ErrCorrupted)
	}
	var hdr segHeader
	if err := json.Unmarshal(raw[12:12+hdrLen], &hdr); err != nil {
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
	payload := body[12+hdrLen:]
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

// SegmentWriter is the handle for writing one segment file. Create one with
// Store.CreateSegment, write the table with WriteTable, make it durable with
// Commit, and always Close — an uncommitted writer's Close removes the temp
// file, a committed writer's Close is a no-op, so `defer w.Close()` after
// CreateSegment is both the error-path cleanup and the happy-path no-op.
type SegmentWriter struct {
	f         *os.File
	dir       string
	tmp       string
	final     string
	site      string
	in        *fault.Injector
	committed bool
	crashed   bool
	closed    bool
}

// WriteTable encodes t and writes it through the handle; every column must
// be a block stream, as Put requires. The injector's
// durability faults apply here: a torn write persists only a prefix of the
// payload (and still reports success), a checksum flip silently corrupts one
// payload byte after the CRC was computed, and a crash aborts with
// ErrInjectedCrash leaving the bytes written so far on disk — exactly the
// partial state a SIGKILL at that instant would leave.
func (w *SegmentWriter) WriteTable(t *table.Table) error {
	raw, err := encodeSegment(t)
	if err != nil {
		return err
	}
	return w.writeRaw(raw)
}

func (w *SegmentWriter) writeRaw(raw []byte) error {
	if w.in.ShouldCrash(w.site) {
		w.crashed = true
		return fmt.Errorf("store: %s: %w", w.site, ErrInjectedCrash)
	}
	if w.in.FlipChecksum(w.site) && len(raw) > 16 {
		// Flip one bit in the middle of the payload, after the CRC in the
		// trailer was computed over the clean bytes.
		raw = append([]byte(nil), raw...)
		raw[len(raw)/2] ^= 0x40
	}
	if w.in.TornWrite(w.site) {
		// Only a prefix reaches the device; the write still reports success.
		raw = raw[:len(raw)/2]
	}
	if _, err := w.f.Write(raw); err != nil {
		return fmt.Errorf("store: write %s: %w", w.tmp, err)
	}
	return nil
}

// Commit makes the segment durable: fsync, close, rename into place, fsync
// the directory. After Commit, Close is a no-op.
func (w *SegmentWriter) Commit() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", w.tmp, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", w.tmp, err)
	}
	w.closed = true
	if w.in.ShouldCrash(w.site + "-rename") {
		w.crashed = true
		return fmt.Errorf("store: %s-rename: %w", w.site, ErrInjectedCrash)
	}
	if err := os.Rename(w.tmp, w.final); err != nil {
		return fmt.Errorf("store: rename %s: %w", w.tmp, err)
	}
	w.committed = true
	return syncDir(w.dir)
}

// Close releases the handle. Uncommitted temp files are removed — except
// after an injected crash, which models a killed process: the OS reclaims
// the descriptor but deletes nothing, so the partial file stays on disk for
// recovery to cope with. Close is idempotent.
func (w *SegmentWriter) Close() error {
	if w.closed && (w.committed || w.crashed) {
		return nil
	}
	var err error
	if !w.closed {
		err = w.f.Close()
		w.closed = true
	}
	if !w.committed && !w.crashed {
		if rmErr := os.Remove(w.tmp); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
			err = rmErr
		}
	}
	return err
}

// SegmentReader is the handle for reading one segment file back. Open with
// OpenSegment, decode with ReadTable, and always Close.
type SegmentReader struct {
	f      *os.File
	path   string
	read   int64 // bytes ReadTable read and validated
	closed bool
}

// OpenSegment opens a segment file for validated reading.
func OpenSegment(path string) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open segment %s: %w", filepath.Base(path), err)
	}
	return &SegmentReader{f: f, path: path}, nil
}

// ReadTable reads the whole segment in one read of the file's size,
// validates its checksum, and rebuilds the table. Corruption of any kind
// wraps errs.ErrCorrupted.
func (r *SegmentReader) ReadTable() (*table.Table, error) {
	fi, err := r.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat segment %s: %w", filepath.Base(r.path), err)
	}
	raw := make([]byte, fi.Size())
	if _, err := io.ReadFull(r.f, raw); err != nil {
		return nil, fmt.Errorf("store: read segment %s: %w", filepath.Base(r.path), err)
	}
	t, err := decodeSegment(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(r.path), err)
	}
	r.read = int64(len(raw))
	return t, nil
}

// Close releases the handle; idempotent.
func (r *SegmentReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.f.Close()
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
