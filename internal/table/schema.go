package table

import "fmt"

// ColumnDef names and types one column of a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema struct {
	cols  []ColumnDef
	index map[string]int
}

// NewSchema builds a schema from column definitions; duplicate or empty
// column names are an error.
func NewSchema(cols ...ColumnDef) (*Schema, error) {
	s := &Schema{cols: append([]ColumnDef(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(cols ...ColumnDef) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column definition.
func (s *Schema) Column(i int) ColumnDef { return s.cols[i] }

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// RowBytes returns the fixed row width in bytes when tuples of this schema
// are stored row-wise (NSM); strings count as their 4-byte dictionary code.
func (s *Schema) RowBytes() int64 {
	var w int64
	for _, c := range s.cols {
		w += c.Type.Width()
	}
	return w
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Type.String()
	}
	return out + ")"
}
