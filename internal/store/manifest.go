package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/table"
)

// Manifest commit protocol. A checkpoint becomes durable in two atomic
// renames, LevelDB-style:
//
//  1. the versioned manifest (MANIFEST-%08d) is written to a temp file,
//     fsynced, and renamed into place;
//  2. CURRENT — a one-line file naming the active manifest — is rewritten
//     the same way.
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

// encodeManifest wraps the manifest JSON in the checksummed envelope
// (same shape as segments: magic, u32 length, body, crc32c).
func encodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(manMagic[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(body)))
	buf.Write(u32[:])
	buf.Write(body)
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(buf.Bytes(), crcTable))
	buf.Write(u32[:])
	return buf.Bytes(), nil
}

// decodeManifest validates the envelope and returns the manifest. Any
// mismatch wraps errs.ErrCorrupted.
func decodeManifest(raw []byte) (*Manifest, error) {
	const envelope = 8 + 4 + 4
	if len(raw) < envelope {
		return nil, fmt.Errorf("store: manifest truncated at %d bytes: %w", len(raw), errs.ErrCorrupted)
	}
	if !bytes.Equal(raw[:8], manMagic[:]) {
		return nil, fmt.Errorf("store: bad manifest magic: %w", errs.ErrCorrupted)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("store: manifest checksum mismatch (got %08x want %08x): %w", got, want, errs.ErrCorrupted)
	}
	bodyLen := int(binary.LittleEndian.Uint32(raw[8:12]))
	if 12+bodyLen != len(body) {
		return nil, fmt.Errorf("store: manifest length %d inconsistent with file size %d: %w", bodyLen, len(raw), errs.ErrCorrupted)
	}
	var m Manifest
	if err := json.Unmarshal(raw[12:12+bodyLen], &m); err != nil {
		return nil, fmt.Errorf("store: manifest body: %w: %w", err, errs.ErrCorrupted)
	}
	return &m, nil
}

// atomicWrite writes data to dir/name via a fsynced temp file and rename,
// consulting the injector at the named durability site for crash, torn-write
// and checksum-flip faults.
func atomicWrite(dir, name string, data []byte, in *fault.Injector, site string) error {
	if in.ShouldCrash(site) {
		return fmt.Errorf("store: %s: %w", site, ErrInjectedCrash)
	}
	if in.FlipChecksum(site) && len(data) > 16 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	if in.TornWrite(site) {
		data = data[:len(data)/2]
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if in.ShouldCrash(site + "-rename") {
		// Killed after the temp file hit disk but before the rename: the
		// temp file stays, the committed name is untouched.
		return fmt.Errorf("store: %s-rename: %w", site, ErrInjectedCrash)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	return syncDir(dir)
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
