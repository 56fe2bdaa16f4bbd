package exp

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestGoldenTables reruns a slice of the catalog — scaling ladder,
// cross-category cluster, fault recovery, the overload service and the
// trace-derived profiles — each on a fresh Lab of its own at GOMAXPROCS 1,
// against the goldens TestEveryExperimentProducesWellFormedTables pins. That
// test runs every entry on one shared Lab, in catalog order, at the default
// GOMAXPROCS; this one pins that an entry's rendering depends on neither what
// the Lab cached before it nor how many threads ran it.
func TestGoldenTables(t *testing.T) {
	if *update {
		t.Skip("goldens are rewritten by TestEveryExperimentProducesWellFormedTables")
	}
	byName := make(map[string]Experiment)
	for _, e := range Catalog() {
		byName[e.Name] = e
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"fig2", "fig4", "fig8a", "recovery", "overload", "clusterbfs", "evolve"} {
		t.Run(name, func(t *testing.T) {
			e, ok := byName[name]
			if !ok {
				t.Fatalf("no catalog entry %q", name)
			}
			tables, err := e.Run(NewLab(Config{Scale: 1024, Seed: 42}))
			if err != nil {
				t.Fatal(err)
			}
			var rendered strings.Builder
			for _, tab := range tables {
				rendered.WriteString(tab.String())
			}
			checkGolden(t, name, rendered.String())
		})
	}
}

// TestGoldenFilesMatchCatalog checks that testdata holds exactly one golden
// per Catalog entry. -update writes goldens but never deletes them, so a
// renamed or removed entry would otherwise leave a file nothing reads.
func TestGoldenFilesMatchCatalog(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, e := range Catalog() {
		want[e.Name+".golden"] = true
	}
	for _, f := range files {
		name := filepath.Base(f)
		if !want[name] {
			t.Errorf("%s names no catalog entry", f)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("no golden testdata/%s", name)
	}
}
