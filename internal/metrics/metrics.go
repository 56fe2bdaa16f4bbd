// Package metrics provides the summary statistics and table formatting the
// experiment harness (package exp), the benchmarks and proxygraph bench share.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean; inputs must be positive.
// It returns 0 for empty input and NaN if any input is non-positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Max returns the maximum, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	best := xs[0]
	for _, x := range xs[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// Table is a titled grid of cells used for every experiment's output, so the
// benchmark harness and proxygraph bench print the same rows the paper's
// tables and figures report.
type Table struct {
	// Title heads the rendered table (e.g. "Fig 9a: Pagerank, Case 1").
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows hold the data cells.
	Rows [][]string
	// Notes are free-form lines appended after the grid.
	Notes []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extras are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			} else if i >= len(width) {
				width = append(width, len(cell))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < len(width); i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(width))
	for i, w := range width {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with the given decimal places.
func F(v float64, places int) string {
	return fmt.Sprintf("%.*f", places, v)
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}

// Speedup formats a ratio in the paper's "1.45x" style.
func Speedup(v float64) string {
	return fmt.Sprintf("%.2fx", v)
}

// Seconds formats a duration in seconds with adaptive precision.
func Seconds(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0fs", v)
	case v >= 1:
		return fmt.Sprintf("%.2fs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.0fµs", v*1e6)
	}
}
