// Package table defines the relational data model of hwstar: schemas, typed
// columns, and in-memory tables. Data is stored column-wise with dictionary
// encoding for strings — the representation the hardware-conscious literature
// converged on — while row-oriented access is provided for the
// hardware-oblivious baselines and for layout experiments.
package table

import "fmt"

// Type enumerates the column types supported by the engine.
type Type int

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Type = iota
	// Float64 is a 64-bit floating point column.
	Float64
	// String is a dictionary-encoded string column.
	String
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Width returns the in-memory width in bytes of one value of this type as
// stored columnar: 8 for numerics, 4 for a dictionary code.
func (t Type) Width() int64 {
	switch t {
	case Int64, Float64:
		return 8
	case String:
		return 4
	default:
		panic(fmt.Sprintf("table: unknown type %d", int(t)))
	}
}

// Value is a dynamically typed cell used by the tuple-at-a-time baseline and
// by tests; the vectorized engine never materializes Values.
type Value struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Kind: Int64, I: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Kind: Float64, F: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Kind: String, S: v} }

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	default:
		return "?"
	}
}
