// Package report renders experiment tables into a self-contained HTML
// report with inline SVG bar charts, so a full `proxygraph bench -html` run
// produces a single reviewable artifact alongside the text tables.
package report

import (
	"fmt"
	"html/template"
	"io"
	"strconv"
	"strings"

	"proxygraph/internal/metrics"
)

// Report accumulates experiment tables for rendering.
type Report struct {
	// Title heads the document.
	Title string
	// Subtitle is shown under the title (e.g. scale and seed).
	Subtitle string

	sections []section
}

type section struct {
	Table *metrics.Table
	Chart template.HTML
}

// New creates an empty report.
func New(title, subtitle string) *Report {
	return &Report{Title: title, Subtitle: subtitle}
}

// Add appends a table; a bar chart is generated when the table has a numeric
// last-or-speedup column worth plotting.
func (r *Report) Add(tables ...*metrics.Table) {
	for _, t := range tables {
		r.sections = append(r.sections, section{Table: t, Chart: barChart(t)})
	}
}

// Len returns the number of sections added so far.
func (r *Report) Len() int { return len(r.sections) }

// WriteHTML renders the document.
func (r *Report) WriteHTML(w io.Writer) error {
	data := struct {
		Title, Subtitle string
		Sections        []section
	}{r.Title, r.Subtitle, r.sections}
	return page.Execute(w, data)
}

// numericColumn finds the best column to chart: the rightmost column where
// most cells parse as numbers (after stripping x/%/units). Returns -1 when
// nothing is plottable.
func numericColumn(t *metrics.Table) int {
	best := -1
	for c := 1; c < len(t.Columns); c++ {
		ok := 0
		for _, row := range t.Rows {
			if c < len(row) {
				if _, parsed := parseCell(row[c]); parsed {
					ok++
				}
			}
		}
		if len(t.Rows) > 0 && ok >= (len(t.Rows)+1)/2 {
			best = c
		}
	}
	return best
}

// parseCell extracts a numeric value from cells like "1.45x", "23.6%",
// "12.41ms", "2.50s", "0.47" or "1 : 3.5" (the ratio's right side).
func parseCell(cell string) (float64, bool) {
	s := strings.TrimSpace(cell)
	if i := strings.LastIndex(s, ":"); i >= 0 {
		s = strings.TrimSpace(s[i+1:])
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), 1e-3
	case strings.HasSuffix(s, "µs"):
		s, mult = strings.TrimSuffix(s, "µs"), 1e-6
	case strings.HasSuffix(s, "s"):
		s = strings.TrimSuffix(s, "s")
	case strings.HasSuffix(s, "x"):
		s = strings.TrimSuffix(s, "x")
	case strings.HasSuffix(s, "%"):
		s = strings.TrimSuffix(s, "%")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

// barChart renders a horizontal bar chart of the chosen numeric column,
// labelled with the leading cells. Tables with nothing numeric or more than
// 40 rows yield no chart.
func barChart(t *metrics.Table) template.HTML {
	col := numericColumn(t)
	if col < 0 || len(t.Rows) == 0 || len(t.Rows) > 40 {
		return ""
	}
	type bar struct {
		label string
		value float64
		text  string
	}
	var bars []bar
	maxV := 0.0
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		v, ok := parseCell(row[col])
		if !ok {
			continue
		}
		label := strings.Join(row[:min(col, 2)], " / ")
		bars = append(bars, bar{label: label, value: v, text: row[col]})
		if v > maxV {
			maxV = v
		}
	}
	if len(bars) == 0 || maxV <= 0 {
		return ""
	}

	const (
		width  = 720
		barH   = 18
		gap    = 4
		labelW = 260
		valueW = 80
		chartW = width - labelW - valueW
	)
	height := len(bars)*(barH+gap) + gap
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" xmlns="http://www.w3.org/2000/svg" role="img">`, width, height)
	fmt.Fprintf(&b, `<title>%s — %s</title>`, template.HTMLEscapeString(t.Title), template.HTMLEscapeString(t.Columns[col]))
	for i, bar := range bars {
		y := gap + i*(barH+gap)
		w := int(float64(chartW) * bar.value / maxV)
		if w < 1 {
			w = 1
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" font-family="monospace" text-anchor="end">%s</text>`,
			labelW-6, y+barH-5, template.HTMLEscapeString(clip(bar.label, 38)))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4878a8"/>`,
			labelW, y, w, barH)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" font-family="monospace">%s</text>`,
			labelW+w+4, y+barH-5, template.HTMLEscapeString(bar.text))
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

var page = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.2rem; }
p.sub { color: #666; }
table { border-collapse: collapse; font-size: 0.85rem; margin: 0.6rem 0; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f0f2f5; }
p.note { color: #555; font-size: 0.8rem; margin: 0.2rem 0; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="sub">{{.Subtitle}}</p>
{{range .Sections}}
<h2>{{.Table.Title}}</h2>
<table>
<tr>{{range .Table.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Table.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}
</table>
{{range .Table.Notes}}<p class="note"># {{.}}</p>{{end}}
{{.Chart}}
{{end}}
</body>
</html>
`))
