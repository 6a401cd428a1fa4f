package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Results", "run", "ratio")
	tab.AddRow("perl.exp", "9.47")
	tab.AddRow("gcc")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Results" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "run") || !strings.Contains(lines[1], "ratio") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator = %q", lines[2])
	}
	if !strings.Contains(lines[3], "perl.exp") || !strings.Contains(lines[3], "9.47") {
		t.Errorf("row = %q", lines[3])
	}
	// Columns align: "ratio" starts at the same offset in header and rows.
	col := strings.Index(lines[1], "ratio")
	if lines[3][col:col+4] != "9.47" {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestTableAddRowf(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.AddRowf("x", 3.14159, 42)
	out := tab.String()
	if !strings.Contains(out, "3.14") {
		t.Errorf("float not formatted: %s", out)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("int missing: %s", out)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.0947) != "9.47" {
		t.Errorf("Pct = %q", Pct(0.0947))
	}
}
