package bench

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "param", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-param", "222")
	tb.AddNote("note %d", 7)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "param", "longer-param", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: the "value" header starts at the same offset as "1".
	lines := strings.Split(out, "\n")
	hdr, row := lines[1], lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity should panic")
		}
	}()
	NewTable("x", "a", "b").AddRow("only-one")
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "two,with comma")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,\"two,with comma\"\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestFormatters(t *testing.T) {
	byteCases := map[int64]string{
		12:      "12B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	}
	for in, want := range byteCases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
	if Ratio(2.5) != "2.50x" {
		t.Error("Ratio format wrong")
	}
	if F("%d-%s", 1, "a") != "1-a" {
		t.Error("F format wrong")
	}
}
