package stats

import (
	"fmt"
	"strings"
)

// Table is a simple aligned-column table, used to print the paper's tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
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
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
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
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a set of named lines over a shared X axis, used to print the
// paper's figures as data series.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	lines  []seriesLine
}

type seriesLine struct {
	name string
	ys   []float64
}

// NewSeries returns an empty figure-series with the given axes.
func NewSeries(title, xlabel, ylabel string, xs ...float64) *Series {
	return &Series{Title: title, XLabel: xlabel, YLabel: ylabel, X: xs}
}

// AddLine appends a named line; ys must align with X.
func (s *Series) AddLine(name string, ys []float64) error {
	if len(ys) != len(s.X) {
		return fmt.Errorf("stats: line %q has %d points, X axis has %d", name, len(ys), len(s.X))
	}
	s.lines = append(s.lines, seriesLine{name: name, ys: ys})
	return nil
}

// Line returns the values of the named line and whether it exists.
func (s *Series) Line(name string) ([]float64, bool) {
	for _, l := range s.lines {
		if l.name == name {
			return l.ys, true
		}
	}
	return nil, false
}

// String renders the series as a table: X column plus one column per line.
func (s *Series) String() string {
	headers := append([]string{s.XLabel}, make([]string, len(s.lines))...)
	for i, l := range s.lines {
		headers[i+1] = l.name
	}
	title := s.Title
	if s.YLabel != "" {
		title += " (y: " + s.YLabel + ")"
	}
	t := NewTable(title, headers...)
	for i, x := range s.X {
		cells := make([]string, len(headers))
		cells[0] = formatNum(x)
		for j, l := range s.lines {
			cells[j+1] = formatNum(l.ys[i])
		}
		t.AddRow(cells...)
	}
	return t.String()
}

func formatNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
