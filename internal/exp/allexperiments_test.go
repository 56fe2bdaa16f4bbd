package exp

import (
	"strings"
	"testing"
)

// TestEveryExperimentProducesWellFormedTables runs the complete experiment
// catalog (Catalog, the list proxygraph bench runs) once at a tiny scale and
// checks structural invariants shared by all outputs: a title, a header, at
// least one row, rectangular-enough rows, and CSV that round-trips the row
// count. This is the integration net under proxygraph bench and the
// benchmark harness.
func TestEveryExperimentProducesWellFormedTables(t *testing.T) {
	lab := NewLab(Config{Scale: 1024, Seed: 42})
	for _, e := range Catalog() {
		t.Run(e.Name, func(t *testing.T) {
			tables, err := e.Run(lab)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.Title == "" {
					t.Error("table has no title")
				}
				if len(tab.Columns) < 2 {
					t.Errorf("table %q has %d columns", tab.Title, len(tab.Columns))
				}
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for i, row := range tab.Rows {
					if len(row) > len(tab.Columns) {
						t.Errorf("table %q row %d wider than header", tab.Title, i)
					}
					for j, cell := range row {
						if strings.TrimSpace(cell) == "" {
							t.Errorf("table %q cell (%d,%d) empty", tab.Title, i, j)
						}
					}
				}
				csv := tab.CSV()
				lines := strings.Count(strings.TrimSpace(csv), "\n") + 1
				if lines != len(tab.Rows)+1 {
					t.Errorf("table %q CSV has %d lines, want %d", tab.Title, lines, len(tab.Rows)+1)
				}
				text := tab.String()
				if !strings.Contains(text, tab.Title) {
					t.Errorf("rendering lost the title of %q", tab.Title)
				}
			}
		})
	}
}
