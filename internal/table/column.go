package table

import "fmt"

// ColumnData is the storage of one column.
type ColumnData interface {
	// Type returns the column's value type.
	Type() Type
	// Len returns the number of rows.
	Len() int
	// ValueAt returns row i as a dynamically typed Value (baseline path).
	ValueAt(i int) Value
	// Bytes returns the in-memory footprint of the column payload.
	Bytes() int64
}

// Int64Data stores an int64 column densely.
type Int64Data struct {
	Values []int64
}

// Type implements ColumnData.
func (d *Int64Data) Type() Type { return Int64 }

// Len implements ColumnData.
func (d *Int64Data) Len() int { return len(d.Values) }

// ValueAt implements ColumnData.
func (d *Int64Data) ValueAt(i int) Value { return IntValue(d.Values[i]) }

// Bytes implements ColumnData.
func (d *Int64Data) Bytes() int64 { return int64(len(d.Values)) * 8 }

// Float64Data stores a float64 column densely.
type Float64Data struct {
	Values []float64
}

// Type implements ColumnData.
func (d *Float64Data) Type() Type { return Float64 }

// Len implements ColumnData.
func (d *Float64Data) Len() int { return len(d.Values) }

// ValueAt implements ColumnData.
func (d *Float64Data) ValueAt(i int) Value { return FloatValue(d.Values[i]) }

// Bytes implements ColumnData.
func (d *Float64Data) Bytes() int64 { return int64(len(d.Values)) * 8 }

// StringData stores a string column dictionary-encoded: Codes[i] indexes
// Dict. Dictionary encoding turns string predicates into integer compares —
// one of the bandwidth-saving techniques the hardware-conscious literature
// mandates for column stores.
type StringData struct {
	Dict  []string
	Codes []int32
	index map[string]int32
}

// NewStringData returns an empty dictionary-encoded string column.
func NewStringData() *StringData {
	return &StringData{index: make(map[string]int32)}
}

// Append adds one string value, interning it in the dictionary.
func (d *StringData) Append(s string) {
	code, ok := d.index[s]
	if !ok {
		code = int32(len(d.Dict))
		d.Dict = append(d.Dict, s)
		if d.index == nil {
			d.index = make(map[string]int32)
		}
		d.index[s] = code
	}
	d.Codes = append(d.Codes, code)
}

// Type implements ColumnData.
func (d *StringData) Type() Type { return String }

// Len implements ColumnData.
func (d *StringData) Len() int { return len(d.Codes) }

// ValueAt implements ColumnData.
func (d *StringData) ValueAt(i int) Value { return StringValue(d.Dict[d.Codes[i]]) }

// Bytes implements ColumnData: code array plus dictionary payload.
func (d *StringData) Bytes() int64 {
	b := int64(len(d.Codes)) * 4
	for _, s := range d.Dict {
		b += int64(len(s)) + 16 // string header approximation
	}
	return b
}

// CardinalityOfDict returns the number of distinct values.
func (d *StringData) CardinalityOfDict() int { return len(d.Dict) }

// NewColumnData returns empty storage for the given type with capacity hint n.
func NewColumnData(t Type, n int) ColumnData {
	switch t {
	case Int64:
		return &Int64Data{Values: make([]int64, 0, n)}
	case Float64:
		return &Float64Data{Values: make([]float64, 0, n)}
	case String:
		d := NewStringData()
		d.Codes = make([]int32, 0, n)
		return d
	default:
		panic(fmt.Sprintf("table: unknown type %d", int(t)))
	}
}
