package table

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeStringAndWidth(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("type names wrong")
	}
	if Int64.Width() != 8 || Float64.Width() != 8 || String.Width() != 4 {
		t.Fatal("type widths wrong")
	}
	if Type(42).String() == "" {
		t.Fatal("unknown type should render")
	}
}

func TestValueConstructorsAndEqual(t *testing.T) {
	if IntValue(3) != IntValue(3) || IntValue(3) == IntValue(4) {
		t.Fatal("int equality broken")
	}
	if FloatValue(1.5) != FloatValue(1.5) || FloatValue(1.5) == FloatValue(2) {
		t.Fatal("float equality broken")
	}
	if StringValue("a") != StringValue("a") || StringValue("a") == StringValue("b") {
		t.Fatal("string equality broken")
	}
	if IntValue(1) == FloatValue(1) {
		t.Fatal("cross-kind values must not be equal")
	}
	if IntValue(7).String() != "7" || StringValue("x").String() != "x" || FloatValue(0.5).String() != "0.5" {
		t.Fatal("value String() broken")
	}
}

func TestSchemaConstruction(t *testing.T) {
	s, err := NewSchema(ColumnDef{"id", Int64}, ColumnDef{"price", Float64}, ColumnDef{"city", String})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumColumns() != 3 {
		t.Fatalf("columns = %d", s.NumColumns())
	}
	if s.ColumnIndex("price") != 1 || s.ColumnIndex("nope") != -1 {
		t.Fatal("ColumnIndex broken")
	}
	if s.Column(2).Name != "city" {
		t.Fatal("Column broken")
	}
	if got := s.RowBytes(); got != 8+8+4 {
		t.Fatalf("RowBytes = %d, want 20", got)
	}
	if s.String() != "(id int64, price float64, city string)" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(ColumnDef{"", Int64}); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := NewSchema(ColumnDef{"a", Int64}, ColumnDef{"a", Float64}); err == nil {
		t.Fatal("duplicate name should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on error")
		}
	}()
	MustSchema(ColumnDef{"", Int64})
}

func TestStringDataDictionary(t *testing.T) {
	d := NewStringData()
	for _, s := range []string{"red", "green", "red", "blue", "green", "red"} {
		d.Append(s)
	}
	if d.Len() != 6 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.CardinalityOfDict() != 3 {
		t.Fatalf("dict cardinality = %d, want 3", d.CardinalityOfDict())
	}
	if want := []int32{0, 1, 0, 2, 1, 0}; !reflect.DeepEqual(d.Codes, want) {
		t.Fatalf("codes = %v, want %v", d.Codes, want)
	}
	if v := d.ValueAt(3); v.S != "blue" {
		t.Fatalf("ValueAt(3) = %v", v)
	}
	if d.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestNewColumnData(t *testing.T) {
	for _, typ := range []Type{Int64, Float64, String} {
		c := NewColumnData(typ, 4)
		if c.Type() != typ || c.Len() != 0 {
			t.Fatalf("NewColumnData(%s) wrong", typ)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown type should panic")
		}
	}()
	NewColumnData(Type(9), 0)
}

func testTable(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(ColumnDef{"id", Int64}, ColumnDef{"price", Float64}, ColumnDef{"city", String})
	b := NewBuilder("orders", s, 4)
	b.MustAppendRow(IntValue(1), FloatValue(9.5), StringValue("zurich"))
	b.MustAppendRow(IntValue(2), FloatValue(3.25), StringValue("basel"))
	b.MustAppendRow(IntValue(3), FloatValue(7.0), StringValue("zurich"))
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	tbl := testTable(t)
	if tbl.Name() != "orders" || tbl.NumRows() != 3 {
		t.Fatalf("name/rows = %s/%d", tbl.Name(), tbl.NumRows())
	}
	ids, err := tbl.Int64Column("id")
	if err != nil || len(ids) != 3 || ids[2] != 3 {
		t.Fatalf("Int64Column: %v %v", ids, err)
	}
	prices, err := tbl.Float64Column("price")
	if err != nil || prices[1] != 3.25 {
		t.Fatalf("Float64Column: %v %v", prices, err)
	}
	cities, err := tbl.StringColumn("city")
	if err != nil || cities.Dict[0] != "zurich" {
		t.Fatalf("StringColumn: %v %v", cities, err)
	}
	row := tbl.Row(1)
	if row[0] != IntValue(2) || row[2] != StringValue("basel") {
		t.Fatalf("Row(1) = %v", row)
	}
	if tbl.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
	if tbl.Column(0).Type() != Int64 {
		t.Fatal("Column broken")
	}
}

func TestColumnAccessErrors(t *testing.T) {
	tbl := testTable(t)
	if _, err := tbl.Int64Column("price"); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := tbl.Float64Column("id"); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := tbl.StringColumn("id"); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := tbl.ColumnByName("ghost"); err == nil {
		t.Fatal("missing column should fail")
	}
}

func TestAppendRowErrors(t *testing.T) {
	s := MustSchema(ColumnDef{"id", Int64})
	b := NewBuilder("t", s, 0)
	if err := b.AppendRow(); err == nil {
		t.Fatal("wrong arity should fail")
	}
	if err := b.AppendRow(FloatValue(1)); err == nil {
		t.Fatal("wrong kind should fail")
	}
	if err := b.AppendRow(IntValue(1)); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	// A failed AppendRow must not partially append.
	if err := b.AppendRow(FloatValue(2)); err == nil {
		t.Fatal("wrong kind should fail")
	}
	tbl := b.Build()
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 (failed appends must not leak)", tbl.NumRows())
	}
}

func TestFromColumnsErrors(t *testing.T) {
	s := MustSchema(ColumnDef{"a", Int64}, ColumnDef{"b", Int64})
	if _, err := FromColumns("t", s, []ColumnData{&Int64Data{}}); err == nil {
		t.Fatal("column count mismatch should fail")
	}
	if _, err := FromColumns("t", s, []ColumnData{&Int64Data{}, &Float64Data{}}); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := FromColumns("t", s, []ColumnData{
		&Int64Data{Values: []int64{1, 2}},
		&Int64Data{Values: []int64{1}},
	}); err == nil {
		t.Fatal("ragged columns should fail")
	}
	empty, err := FromColumns("t", s, []ColumnData{&Int64Data{}, &Int64Data{}})
	if err != nil || empty.NumRows() != 0 {
		t.Fatalf("empty table: %v %v", empty, err)
	}
}

// Property: building a table row-wise and reading it back yields the same
// values in the same order.
func TestRoundTripProperty(t *testing.T) {
	s := MustSchema(ColumnDef{"i", Int64}, ColumnDef{"f", Float64}, ColumnDef{"s", String})
	words := []string{"a", "b", "c", "d"}
	f := func(ints []int64, pick []uint8) bool {
		n := len(ints)
		if len(pick) < n {
			n = len(pick)
		}
		b := NewBuilder("rt", s, n)
		for r := 0; r < n; r++ {
			b.MustAppendRow(IntValue(ints[r]), FloatValue(float64(ints[r])/3), StringValue(words[int(pick[r])%len(words)]))
		}
		tbl := b.Build()
		if tbl.NumRows() != n {
			return false
		}
		for r := 0; r < n; r++ {
			row := tbl.Row(r)
			if row[0].I != ints[r] || row[1].F != float64(ints[r])/3 || row[2].S != words[int(pick[r])%len(words)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: dictionary encoding preserves value identity — equal strings get
// equal codes and unequal strings get unequal codes.
func TestDictionaryCodesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		d := NewStringData()
		strs := make([]string, len(raw))
		for i, r := range raw {
			strs[i] = string(rune('a' + r%16))
			d.Append(strs[i])
		}
		for i := range strs {
			for j := range strs {
				ci, cj := d.Codes[i], d.Codes[j]
				if (strs[i] == strs[j]) != (ci == cj) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
