// Package bench is the experiment harness: it renders parameter-sweep
// results as fixed-width tables (the form the experiments are reported in)
// and as CSV for downstream plotting, and provides small formatting helpers
// for cycle counts and byte sizes.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: a title, column headers, rows of
// pre-formatted cells, and free-form notes rendered under the table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; the cell count must match the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: table %q: row has %d cells, want %d", t.Title, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-form annotation line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table with aligned fixed-width columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  " + n + "\n")
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV writes the table as a header row plus data rows.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bytes formats a byte count with binary suffixes.
func Bytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Ratio formats a speedup/slowdown factor.
func Ratio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// F is fmt.Sprintf, re-exported so experiment code reads compactly.
func F(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// ErrMismatch reports that two implementations that must agree produced
// different results — experiments use it to fail loudly instead of printing
// wrong tables.
func ErrMismatch(id string, a, b int64) error {
	return fmt.Errorf("%s: result mismatch between implementations: %d vs %d", id, a, b)
}
