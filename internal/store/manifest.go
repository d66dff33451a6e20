package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/table"
)

// Manifest commit protocol. Every store file — each segment, each
// manifest, CURRENT — is written by one function, commit: a temp file,
// fsync, rename, directory sync. A checkpoint's segments are committed
// first; then it becomes durable in two atomic renames, LevelDB-style:
//
//  1. the versioned manifest (MANIFEST-%08d) is committed;
//  2. CURRENT — a one-line file naming the active manifest — is committed
//     over the old one.
//
// A crash between the two leaves CURRENT pointing at the previous manifest:
// the new segments and manifest exist on disk but are not committed, and
// recovery ignores them. A crash (or torn write) that corrupts the file
// CURRENT points at is caught by the manifest envelope checksum, and
// recovery falls back to the newest older manifest that validates end to
// end. The store keeps the last manifestKeep versions (and their segments)
// precisely so that fallback has somewhere to land.
var manMagic = [8]byte{'H', 'W', 'M', 'A', 'N', '1', 0, 1}

const (
	currentName  = "CURRENT"
	manifestKeep = 3
)

// Manifest is one committed version of the store: which segment holds each
// table.
type Manifest struct {
	// Version is the monotonically increasing checkpoint number.
	Version uint64 `json:"version"`
	// Tables maps table name to its persisted location.
	Tables map[string]TableEntry `json:"tables"`
}

// TableEntry locates one table inside a manifest version.
type TableEntry struct {
	// Segment is the segment file name (relative to the store directory).
	Segment string `json:"segment"`
	// Rows and Bytes describe the table. Bytes is the resident footprint:
	// int64 columns at their compressed size.
	Rows  int   `json:"rows"`
	Bytes int64 `json:"bytes"`
	// Tier is always TierHot when written, so a store that still places
	// tables by tier reads every table as resident. Recovery ignores it: a
	// manifest that records a table "cold" recovers that table eagerly too.
	Tier string `json:"tier"`
}

// TierHot is the only tier a manifest records.
const TierHot = "hot"

// tableEntry is the manifest row of table t committed in segment seg.
func tableEntry(seg string, t *table.Table) TableEntry {
	return TableEntry{Segment: seg, Rows: t.NumRows(), Bytes: t.Bytes(), Tier: TierHot}
}

func manifestName(version uint64) string { return fmt.Sprintf("MANIFEST-%08d", version) }

// encodeManifest wraps the manifest JSON in the segments' checksummed
// envelope, with nothing after the body.
func encodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	head := envelopeHead(manMagic, body)
	return binary.LittleEndian.AppendUint32(head, crc32.Checksum(head, crcTable)), nil
}

// decodeManifest validates the envelope and returns the manifest. Any
// mismatch wraps errs.ErrCorrupted.
func decodeManifest(raw []byte) (*Manifest, error) {
	body, rest, err := openEnvelope(raw, manMagic, "manifest")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("store: manifest length %d inconsistent with file size %d: %w", len(body), len(raw), errs.ErrCorrupted)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("store: manifest body: %w: %w", err, errs.ErrCorrupted)
	}
	return &m, nil
}

// commit writes the size-byte file dir/name that write streams: a temp
// file, fsync, rename over name, directory sync. The injector's faults at
// site are drawn before the temp file exists, in this order: a crash aborts
// with ErrInjectedCrash; a checksum flip corrupts byte size/2 (of files over
// 16 bytes) and a torn write keeps only the first size/2 bytes, both by
// offset as the bytes pass (faultWriter) and both reporting success. A
// crash at site+"-rename" leaves the synced temp file and the committed
// name as a kill between the two would.
func commit(dir, name, site string, in *fault.Injector, size int, write func(io.Writer) error) error {
	if in.ShouldCrash(site) {
		return fmt.Errorf("store: %s: %w", site, ErrInjectedCrash)
	}
	fw := &faultWriter{flip: -1, keep: size}
	if in.FlipChecksum(site) && size > 16 {
		fw.flip = size / 2
	}
	if in.TornWrite(site) {
		fw.keep = size / 2
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	fw.w = f
	err = write(fw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if in.ShouldCrash(site + "-rename") {
		return fmt.Errorf("store: %s-rename: %w", site, ErrInjectedCrash)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	return syncDir(dir)
}

// commitBytes commits data as dir/name (see commit).
func commitBytes(dir, name, site string, in *fault.Injector, data []byte) error {
	return commit(dir, name, site, in, len(data), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// faultWriter passes a file's bytes on to w as the injector's draws leave
// them, by offset: the byte at flip XORed by 0x40, nothing past keep.
type faultWriter struct {
	w    io.Writer
	off  int // bytes passed so far
	flip int // offset of the byte a checksum fault flips; -1 for none
	keep int // bytes that reach w: the file, or the prefix a torn write leaves
}

func (f *faultWriter) Write(p []byte) (int, error) {
	kept := p[:min(len(p), max(f.keep-f.off, 0))]
	if i := f.flip - f.off; i >= 0 && i < len(kept) {
		kept = append(append(kept[:i:i], kept[i]^0x40), kept[i+1:]...) // a flipped copy
	}
	f.off += len(p)
	if _, err := f.w.Write(kept); err != nil {
		return 0, err
	}
	return len(p), nil
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

// readCurrent returns the manifest file name CURRENT points at, or "" when
// there is no readable CURRENT (fresh directory, or torn CURRENT write).
// The name must match manifestName's exact MANIFEST-%08d shape: a torn
// write persists a prefix of the payload, and a truncated name such as
// "MANIFEST-000" sorts before every real manifest, which would silently
// filter all of them out of recovery.
func readCurrent(dir string) string {
	raw, err := os.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		return ""
	}
	name := strings.TrimSpace(string(raw))
	digits, ok := strings.CutPrefix(name, "MANIFEST-")
	if !ok || len(digits) != 8 {
		return ""
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return ""
		}
	}
	return name
}

// listManifests returns all manifest file names in dir, newest first.
func listManifests(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "MANIFEST-") && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// gc removes manifests older than the manifestKeep most recent, and any
// segment file that neither a retained (and still valid) manifest nor the
// live set references. The live set is the store's in-memory view of its
// current segments: it can name segments no valid on-disk manifest does —
// a torn manifest write reports success, so the store keeps treating its
// segments as committed and clean, and deleting them would turn one silent
// manifest corruption into unrecoverable loss of every later checkpoint
// that reuses them. Best-effort: gc errors never fail a committed
// checkpoint.
func gc(dir string, live map[string]bool) {
	manifests := listManifests(dir)
	if len(manifests) <= manifestKeep {
		manifests = manifests[:0]
	} else {
		manifests = manifests[manifestKeep:]
	}
	for _, name := range manifests {
		os.Remove(filepath.Join(dir, name))
	}
	referenced := make(map[string]bool, len(live))
	for seg := range live {
		referenced[seg] = true
	}
	for _, name := range listManifests(dir) {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		m, err := decodeManifest(raw)
		if err != nil {
			continue
		}
		for _, e := range m.Tables {
			referenced[e.Segment] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".seg") && !referenced[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
