// Package layout implements the three classic in-memory storage layouts —
// NSM (row store), DSM (column store), and PAX (hybrid pages) — over the
// same logical relation, plus a PDSM-style cost-based layout advisor.
//
// The keynote argues that data layout is a hardware decision: which layout
// wins depends on cache-line utilization under the actual access pattern,
// not on the logical schema. This package makes that measurable two ways:
// an analytic cost description (ScanWork/PointWork feed the hw machine
// model), and a traced mode that pushes the exact address stream of a point
// lookup through the cache simulator.
package layout

import (
	"fmt"

	"hwstar/internal/cache"
	"hwstar/internal/hw"
)

// Kind identifies a storage layout.
type Kind int

const (
	// NSM is the N-ary Storage Model: full rows stored contiguously.
	NSM Kind = iota
	// DSM is the Decomposition Storage Model: each column contiguous.
	DSM
	// PAX stores pages of rows with column mini-pages inside each page.
	PAX
)

// String returns the layout name.
func (k Kind) String() string {
	switch k {
	case NSM:
		return "NSM"
	case DSM:
		return "DSM"
	case PAX:
		return "PAX"
	default:
		return fmt.Sprintf("layout(%d)", int(k))
	}
}

// fieldBytes is the width of every field: layout experiments use fixed-width
// 8-byte attributes, the convention of the PDSM/PAX literature.
const fieldBytes = 8

// paxPageBytes is the size of one PAX page. PAX packs all of a row group's
// column mini-pages into a single OS page so a full-row read costs one TLB
// entry; the rows-per-page therefore depends on the column count and is
// computed per relation (Relation.PAXRowsPerPage).
const paxPageBytes = 4096

// Relation is a fixed-width relation stored in one of the layouts.
type Relation struct {
	kind Kind
	rows int
	cols int
	// data holds all fields in layout-specific order (see index).
	data []int64
	// base is the simulated start address used by traced scans; relations
	// are placed at disjoint simulated addresses by the caller when several
	// are traced together.
	base uint64
	// paxRows is the number of rows per PAX page for this relation's width.
	paxRows int
}

// newRelation allocates the relation shell with derived parameters.
func newRelation(kind Kind, rows, cols int) *Relation {
	paxRows := paxPageBytes / (cols * fieldBytes)
	if paxRows < 1 {
		paxRows = 1
	}
	return &Relation{kind: kind, rows: rows, cols: cols, paxRows: paxRows}
}

// Build materializes columns (all of equal length) into the given layout.
func Build(kind Kind, columns [][]int64) (*Relation, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("layout: need at least one column")
	}
	rows := len(columns[0])
	for i, c := range columns {
		if len(c) != rows {
			return nil, fmt.Errorf("layout: column %d has %d rows, expected %d", i, len(c), rows)
		}
	}
	r := newRelation(kind, rows, len(columns))
	r.data = make([]int64, rows*len(columns))
	for c, col := range columns {
		for row, v := range col {
			r.data[r.index(row, c)] = v
		}
	}
	return r, nil
}

// MustBuild is Build that panics on error, for fixtures.
func MustBuild(kind Kind, columns [][]int64) *Relation {
	r, err := Build(kind, columns)
	if err != nil {
		panic(err)
	}
	return r
}

// index maps (row, col) to a position in data according to the layout.
func (r *Relation) index(row, col int) int {
	switch r.kind {
	case NSM:
		return row*r.cols + col
	case DSM:
		return col*r.rows + row
	case PAX:
		page := row / r.paxRows
		inPage := row % r.paxRows
		pageRows := r.paxRows
		// The final page may be short.
		if (page+1)*r.paxRows > r.rows {
			pageRows = r.rows - page*r.paxRows
		}
		return page*r.paxRows*r.cols + col*pageRows + inPage
	default:
		panic(fmt.Sprintf("layout: unknown kind %d", int(r.kind)))
	}
}

// NumRows returns the row count.
func (r *Relation) NumRows() int { return r.rows }

// NumCols returns the column count.
func (r *Relation) NumCols() int { return r.cols }

// Bytes returns the relation footprint. It is computed from the shape, not
// from materialized storage, because the layout advisor prices relations it
// never materializes.
func (r *Relation) Bytes() int64 { return int64(r.rows) * int64(r.cols) * fieldBytes }

// SetBase assigns the simulated base address used by traced accesses.
func (r *Relation) SetBase(b uint64) { r.base = b }

// Get returns the field at (row, col).
func (r *Relation) Get(row, col int) int64 { return r.data[r.index(row, col)] }

// Set overwrites the field at (row, col).
func (r *Relation) Set(row, col int, v int64) { r.data[r.index(row, col)] = v }

// Addr returns the simulated address of field (row, col).
func (r *Relation) Addr(row, col int) uint64 {
	return r.base + uint64(r.index(row, col))*fieldBytes
}

// ScanWork returns the analytic cost description of scanning the given
// columns of the whole relation, for the machine model with line size
// lineBytes. Cache-line granularity is what separates the layouts: NSM pulls
// entire rows through the cache regardless of how many columns the query
// needs; DSM and PAX pull only the needed columns.
func (r *Relation) ScanWork(cols []int, lineBytes int64) hw.Work {
	k := int64(len(cols))
	n := int64(r.rows)
	w := hw.Work{Name: fmt.Sprintf("scan-%s", r.kind), Tuples: n, ComputePerTuple: float64(k)}
	rowBytes := int64(r.cols) * fieldBytes
	switch r.kind {
	case NSM:
		// Every line of every row is touched: full relation streamed unless
		// the row width exceeds a line and the needed columns cluster, which
		// we conservatively ignore (worst case is the common case for the
		// narrow rows used here).
		w.SeqReadBytes = n * rowBytes
	case DSM, PAX:
		w.SeqReadBytes = n * k * fieldBytes
	}
	_ = lineBytes
	return w
}

// PointWork returns the analytic cost of fetching all cols of one row, as a
// list of work items (PAX needs two classes of random access with different
// working sets). Charge every item to the same account.
func (r *Relation) PointWork(cols []int, lineBytes int64) []hw.Work {
	k := int64(len(cols))
	rowBytes := int64(r.cols) * fieldBytes
	name := fmt.Sprintf("point-%s", r.kind)
	switch r.kind {
	case NSM:
		// One row is one or a few adjacent lines: a single random access
		// per line of the row.
		lines := (rowBytes + lineBytes - 1) / lineBytes
		return []hw.Work{{Name: name, Tuples: 1, ComputePerTuple: float64(k),
			RandomReads: lines, RandomWS: r.Bytes()}}
	case DSM:
		// One random access per needed column, each in a distant region.
		return []hw.Work{{Name: name, Tuples: 1, ComputePerTuple: float64(k),
			RandomReads: k, RandomWS: r.Bytes()}}
	case PAX:
		// One full-cost access finds the page; the remaining columns live in
		// the same (now cache/TLB-warm) page, so their accesses see only a
		// page-sized working set.
		works := []hw.Work{{Name: name, Tuples: 1, ComputePerTuple: float64(k),
			RandomReads: 1, RandomWS: r.Bytes()}}
		if k > 1 {
			works = append(works, hw.Work{Name: name + "-page",
				RandomReads: k - 1, RandomWS: int64(r.paxRows) * rowBytes})
		}
		return works
	default:
		panic(fmt.Sprintf("layout: unknown kind %d", int(r.kind)))
	}
}

// TracePoint pushes the address stream of one point lookup through the cache
// hierarchy, returning simulated cycles.
func (r *Relation) TracePoint(h *cache.Hierarchy, row int, cols []int) float64 {
	total := 0.0
	for _, c := range cols {
		total += h.Access(r.Addr(row, c))
	}
	return total
}
