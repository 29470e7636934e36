// Package report renders experiment results as plain-text tables and
// series, the way the benchmark harness prints each reproduced table and
// figure of the paper.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid with a header row.
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

// AddRow appends a row; short rows are padded, long rows panic (caller bug).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: row with %d cells in a %d-column table", len(cells), len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
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
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	fmt.Fprintln(w, line(t.Columns))
	fmt.Fprintln(w, line(rule))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Point is one sample of a series.
type Point struct {
	X     float64
	Y     float64
	Label string
}

// Series is a titled sequence of points (one figure curve).
type Series struct {
	Title  string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64, label string) {
	s.Points = append(s.Points, Point{X: x, Y: y, Label: label})
}

// Render writes the series as a table plus a unicode bar chart scaled to
// the maximum Y.
func (s *Series) Render(w io.Writer) {
	if s.Title != "" {
		fmt.Fprintf(w, "%s\n", s.Title)
	}
	var maxY float64
	for _, p := range s.Points {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	const width = 40
	for _, p := range s.Points {
		bar := 0
		if maxY > 0 {
			bar = int(p.Y / maxY * width)
		}
		label := p.Label
		if label == "" {
			label = fmt.Sprintf("%g", p.X)
		}
		fmt.Fprintf(w, "  %-22s %10.3f %s %s\n", label, p.Y, s.YLabel, strings.Repeat("#", bar))
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (s *Series) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}
