package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestStatsBasics(t *testing.T) {
	var s Stats
	if s.N() != 0 || s.Mean() != 0 {
		t.Error("zero-value stats should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
}

func TestStatsSingleSample(t *testing.T) {
	var s Stats
	s.Add(3.5)
	if s.N() != 1 || s.Mean() != 3.5 {
		t.Error("single-sample stats wrong")
	}
}

func TestStatsNegativeValues(t *testing.T) {
	var s Stats
	s.Add(-10)
	s.Add(10)
	if s.N() != 2 || s.Mean() != 0 {
		t.Error("negative handling wrong")
	}
}

func TestAddDuration(t *testing.T) {
	var s Stats
	s.AddDuration(250 * time.Millisecond)
	if s.Mean() != 0.25 {
		t.Errorf("Mean = %v, want 0.25", s.Mean())
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("E8: k sweep", "k", "time(ms)", "segments")
	tab.AddRow("10", "1.5", "12")
	tab.AddRow("20", "3.25", "24")
	tab.AddRow("40") // short row padded
	out := tab.String()
	if !strings.Contains(out, "E8: k sweep") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "k ") || !strings.Contains(out, "3.25") {
		t.Errorf("table misrendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	if len(tab.Rows()) != 3 {
		t.Errorf("rows = %d", len(tab.Rows()))
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "0.5µs"},
		{42 * time.Microsecond, "42.0µs"},
		{3500 * time.Microsecond, "3.50ms"},
		{2500 * time.Millisecond, "2.500s"},
	}
	for _, tt := range tests {
		if got := FormatDuration(tt.d); got != tt.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{512, "512B"},
		{2048, "2.0KiB"},
		{3 << 20, "3.00MiB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.n); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestTableAccessors(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.AddRow("1", "2")
	tab.AddRow("3") // padded
	if tab.Title() != "demo" {
		t.Errorf("Title = %q", tab.Title())
	}
	h := tab.Headers()
	if len(h) != 2 || h[0] != "a" || h[1] != "b" {
		t.Errorf("Headers = %v", h)
	}
	rows := tab.Rows()
	if len(rows) != 2 || rows[0][1] != "2" || rows[1][1] != "" {
		t.Errorf("Rows = %v", rows)
	}
	// The returned slices are copies: mutating them must not touch the table.
	h[0] = "x"
	rows[0][0] = "x"
	if tab.Headers()[0] != "a" || tab.Rows()[0][0] != "1" {
		t.Error("accessors leaked internal state")
	}
}
