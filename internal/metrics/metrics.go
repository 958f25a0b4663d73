// Package metrics provides the statistics and table rendering used by the
// experiment harness: a streaming mean, and fixed-width table
// output matching the rows the paper's evaluation reports.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Stats accumulates a stream of float64 samples with O(1) memory. The
// zero value is ready to use.
type Stats struct {
	n    int
	mean float64
}

// Add records one sample.
func (s *Stats) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// AddDuration records a duration sample in seconds.
func (s *Stats) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the sample count.
func (s *Stats) N() int { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Stats) Mean() float64 { return s.mean }

// Table renders fixed-width experiment tables.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// Headers returns a copy of the column headers.
func (t *Table) Headers() []string {
	return append([]string(nil), t.headers...)
}

// Rows returns a copy of the data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a duration in the unit that keeps 3 significant
// digits readable (µs / ms / s).
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(n int) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	}
}
