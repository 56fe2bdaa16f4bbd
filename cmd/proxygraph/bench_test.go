package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"proxygraph/internal/exp"
)

// wallTimes matches the per-experiment wall-time lines, which differ from
// run to run.
var wallTimes = regexp.MustCompile(`(?m)^(# \S+ finished in ).*$`)

// TestCPUProfileLeavesTheReportAlone pins bench's report, wall times
// blanked, to golden bytes with and without -cpuprofile, checks that the
// profile is written, and pins an unwritable profile path to failing before
// any experiment runs, as -trace-out does.
func TestCPUProfileLeavesTheReportAlone(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "bench_fig6_table2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"bench", "-exp", "fig6,table2", "-scale", "1024"}
	profile := filepath.Join(t.TempDir(), "cpu.prof")
	for _, args := range [][]string{args, append(args, "-cpuprofile", profile)} {
		if got := wallTimes.ReplaceAll(runOK(t, args...), []byte("${1}…")); !bytes.Equal(got, want) {
			t.Errorf("proxygraph %s: report differs from the golden file\n got:\n%s\nwant:\n%s",
				strings.Join(args, " "), got, want)
		}
	}
	if info, err := os.Stat(profile); err != nil || info.Size() == 0 {
		t.Errorf("-cpuprofile left no profile behind (%v)", err)
	}

	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof")
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-cpuprofile", bad), &stdout, &stderr); code == 0 {
		t.Error("an unwritable -cpuprofile path must fail")
	}
	if stdout.Len() != 0 {
		t.Errorf("an unwritable -cpuprofile path must fail before any experiment runs, but bench printed:\n%s", stdout.String())
	}
}

func TestSelectExperimentsAll(t *testing.T) {
	exps := exp.Catalog()
	got, err := selectExperiments("all", exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exps) {
		t.Fatalf("selected %d of %d experiments", len(got), len(exps))
	}
	for i, e := range exps {
		if got[i].Name != e.Name {
			t.Fatalf("catalog order lost at %d: %q != %q", i, got[i].Name, e.Name)
		}
	}
}

func TestSelectExperimentsList(t *testing.T) {
	got, err := selectExperiments(" fig4 , recovery ", exp.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "fig4" || got[1].Name != "recovery" {
		t.Fatalf("selected %v", got)
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	_, err := selectExperiments("fig4,nonsense", exp.Catalog())
	if err == nil {
		t.Fatal("unknown experiment must be rejected")
	}
	if !strings.Contains(err.Error(), `"nonsense"`) || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("error should name the bad experiment and list known ones: %v", err)
	}
}

// TestCatalogHasUniqueNames guards against two experiments shadowing each
// other in the -exp lookup.
func TestCatalogHasUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range exp.Catalog() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" {
			t.Errorf("experiment %q has no description", e.Name)
		}
		if e.Run == nil {
			t.Errorf("experiment %q has no run function", e.Name)
		}
	}
}
