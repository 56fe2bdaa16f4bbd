package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"proxygraph/internal/exp"
)

// TestMain lets the tests run the command itself: with BENCH_AS_MAIN set the
// test binary is bench, flags and all.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchCommand returns bench with args, run as the test binary itself.
func benchCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCH_AS_MAIN=1")
	return cmd
}

// wallTimes matches the per-experiment wall-time lines, which differ from
// run to run.
var wallTimes = regexp.MustCompile(`(?m)^(# \S+ finished in ).*$`)

// runMain executes bench with args and returns what it printed, wall times
// blanked.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := benchCommand(args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return wallTimes.ReplaceAll(out, []byte("${1}…"))
}

// TestCPUProfileLeavesTheReportAlone pins -cpuprofile to adding nothing to
// the report and writing a profile, and an unwritable profile path to failing
// before any experiment runs, as -trace-out does.
func TestCPUProfileLeavesTheReportAlone(t *testing.T) {
	args := []string{"-exp", "fig6,table2", "-scale", "1024"}
	want := runMain(t, args...)
	profile := filepath.Join(t.TempDir(), "cpu.prof")
	if got := runMain(t, append(args, "-cpuprofile", profile)...); !bytes.Equal(got, want) {
		t.Errorf("-cpuprofile changed the report\n got:\n%s\nwant:\n%s", got, want)
	}
	if info, err := os.Stat(profile); err != nil || info.Size() == 0 {
		t.Errorf("-cpuprofile left no profile behind (%v)", err)
	}

	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof")
	out, err := benchCommand(append(args, "-cpuprofile", bad)...).Output()
	if err == nil {
		t.Error("an unwritable -cpuprofile path must fail")
	}
	if len(out) != 0 {
		t.Errorf("an unwritable -cpuprofile path must fail before any experiment runs, but bench printed:\n%s", out)
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
		if got[i] != e.Name {
			t.Fatalf("catalog order lost at %d: %q != %q", i, got[i], e.Name)
		}
	}
}

func TestSelectExperimentsList(t *testing.T) {
	got, err := selectExperiments(" fig4 , recovery ", exp.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "fig4" || got[1] != "recovery" {
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
// other in the -exp lookup map.
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
