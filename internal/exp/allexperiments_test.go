package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files with the current output:
//
//	go test ./internal/exp -run TestEveryExperimentProducesWellFormedTables -update
//
// Review the resulting testdata/*.golden diff like any other code change —
// these files pin the rendered experiment tables byte-for-byte, so an
// unexpected diff means an accounting, partitioning, or formatting change.
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestEveryExperimentProducesWellFormedTables runs the complete experiment
// catalog (Catalog, the list proxygraph bench runs) once at a tiny scale,
// checks structural invariants shared by all outputs — a title, a header, at
// least one row, rectangular-enough rows, and CSV that round-trips the row
// count — and pins each entry's rendering (its tables' String(), in order)
// to testdata/<name>.golden. The whole pipeline under each table —
// generation, proxy profiling, partitioning, all three engines' accounting,
// and table formatting — is deterministic for a fixed (Scale, Seed), so any
// byte of drift is a real behaviour change. This is the integration net
// under proxygraph bench and the benchmark harness.
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
			var rendered strings.Builder
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
				rendered.WriteString(text)
			}
			checkGolden(t, e.Name, rendered.String())
		})
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites that
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (rerun with -update if intended)\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}
