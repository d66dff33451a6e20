package table

import (
	"strings"
	"testing"
	"testing/quick"
)

func csvSchema() *Schema {
	return MustSchema(
		ColumnDef{Name: "id", Type: Int64},
		ColumnDef{Name: "price", Type: Float64},
		ColumnDef{Name: "city", Type: String},
	)
}

func TestReadCSV(t *testing.T) {
	in := "id,price,city\n1,9.5,zurich\n2,3.25,basel\n-3,0.125,zurich\n"
	tbl, err := ReadCSV("orders", csvSchema(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	row := tbl.Row(2)
	if row[0].I != -3 || row[1].F != 0.125 || row[2].S != "zurich" {
		t.Fatalf("row 2 = %v", row)
	}
	cities, _ := tbl.StringColumn("city")
	if cities.CardinalityOfDict() != 2 {
		t.Fatal("dictionary should dedupe repeated cities")
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := csvSchema()
	cases := map[string]string{
		"empty":        "",
		"wrong header": "id,cost,city\n1,2,x\n",
		"bad int":      "id,price,city\nx,2,a\n",
		"bad float":    "id,price,city\n1,x,a\n",
		"short row":    "id,price,city\n1,2\n",
		"long row":     "id,price,city\n1,2,a,extra\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV("t", s, strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Header only is a valid empty table.
	tbl, err := ReadCSV("t", s, strings.NewReader("id,price,city\n"))
	if err != nil || tbl.NumRows() != 0 {
		t.Fatalf("header-only: %v, %v", tbl, err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := testTable(t)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(tbl.Name(), tbl.Schema(), strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", back.NumRows(), tbl.NumRows())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		a, b := tbl.Row(r), back.Row(r)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("row %d col %d: %v vs %v", r, c, a[c], b[c])
			}
		}
	}
}

// Property: WriteCSV → ReadCSV is the identity for arbitrary values,
// including floats needing full precision and strings with commas/quotes.
func TestCSVRoundTripProperty(t *testing.T) {
	s := csvSchema()
	words := []string{"a", "b,with,commas", `c"quoted"`, "d\nnewline", ""}
	f := func(ints []int64, picks []uint8) bool {
		n := len(ints)
		if len(picks) < n {
			n = len(picks)
		}
		b := NewBuilder("rt", s, n)
		for i := 0; i < n; i++ {
			b.MustAppendRow(
				IntValue(ints[i]),
				FloatValue(float64(ints[i])/7),
				StringValue(words[int(picks[i])%len(words)]),
			)
		}
		tbl := b.Build()
		var sb strings.Builder
		if err := tbl.WriteCSV(&sb); err != nil {
			return false
		}
		back, err := ReadCSV("rt", s, strings.NewReader(sb.String()))
		if err != nil || back.NumRows() != n {
			return false
		}
		for r := 0; r < n; r++ {
			a, bb := tbl.Row(r), back.Row(r)
			for c := range a {
				if a[c] != bb[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
