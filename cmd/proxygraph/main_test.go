package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proxygraph/internal/core"
)

// TestSubcommandsMatchGoldenFiles runs every subcommand in one directory,
// with relative paths, and compares stdout byte for byte. The rows read the
// files earlier rows wrote. All goldens except stats_inside and stats_counts
// are the output of the single-purpose tools proxygraph replaced (graphgen,
// graphstats, partition, profiler, advisor); those two report the α alphafit
// printed for the same input, with the default proxy band's verdict.
func TestSubcommandsMatchGoldenFiles(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, tc := range []struct{ golden, args string }{
		{"gen_list", "gen -list"},
		{"gen_spec", "gen -spec wiki -scale 512 -out g.bin"},
		{"gen_kind", "gen -kind powerlaw -vertices 3000 -alpha 2.1 -seed 7 -out p.txt"},
		{"stats_file", "stats -file g.bin -histogram"},
		{"stats_inside", "stats -file p.txt"},
		// α = 1.8746 lies in [1.85, 1.90): EnsureCoverage adds no proxy for
		// it, so the verdict must be "inside".
		{"stats_counts", "stats -vertices 1000 -edges 6500"},
		{"partition_ginger", "partition -file g.bin -algo ginger -weights 1,3.5"},
		{"partition_grid", "partition -file p.txt -algo grid -machines 4"},
		{"profile_out", "profile -cluster c4.xlarge,c4.2xlarge -scale 1024 -out pool.json"},
		{"profile_prior", "profile -cluster xeon:4:2.5,xeon:12:2.5 -estimator prior-work"},
		{"advise_speed", "advise -scale 1024 -budget 1 -max 3"},
		{"advise_dollar", "advise -scale 1024 -budget 1 -max 3 -objective speed-per-dollar"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("proxygraph %s: exit %d\n%s", tc.args, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join(testdata, tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("proxygraph %s: stdout differs from %s.golden\n got:\n%s\nwant:\n%s",
				tc.args, tc.golden, stdout.Bytes(), want)
		}
	}

	for file, sum := range map[string]string{
		"g.bin": "4735fec2788c0376a5c1b1ff1c280fe02f3f4897d8e35373493319142d875d44",
		"p.txt": "0e401fa882ba00202b3101ccec5ba5984f3bf2f92b03da55e58e6b02f9bd0933",
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", file, got, sum)
		}
	}

	want, err := os.ReadFile(filepath.Join(testdata, "pool.json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("pool.json"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("pool.json differs from pool.json.golden (%v)\n got:\n%s", err, got)
	}
	pool, err := core.LoadPoolFile("pool.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.SaveFile("resaved.json"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile("resaved.json"); pool.Len() != 4 || !bytes.Equal(got, want) {
		t.Errorf("pool.json did not round-trip through LoadPoolFile: %d apps\n%s", pool.Len(), got)
	}
}

// TestErrorsPrintOneLineAndNothingOnStdout pins every failure to a non-zero
// exit, one line on stderr naming the problem and an empty stdout. A missing
// or unknown subcommand also lists all five subcommands.
func TestErrorsPrintOneLineAndNothingOnStdout(t *testing.T) {
	t.Chdir(t.TempDir())
	var discard bytes.Buffer
	if code := run(strings.Fields("gen -vertices 300 -alpha 2.1 -out g.txt"), &discard, &discard); code != 0 {
		t.Fatalf("gen: exit %d\n%s", code, discard.String())
	}
	for _, tc := range []struct{ args, want string }{
		{"", `unknown subcommand ""`},
		{"nope", `unknown subcommand "nope"`},
		{"stats", "need -file or positive -vertices/-edges"},
		{"stats -vertices 1000 -histogram", "-histogram needs -file"},
		{"stats -file missing.bin", "missing.bin"},
		{"stats -nope", "flag provided but not defined: -nope"},
		{"partition", "need -file"},
		{"partition -file g.txt -algo nope", `unknown algorithm "nope"`},
		{"partition -file g.txt -machines -1", "-1 machines"},
		{"partition -file g.txt -weights NaN,1", "NaN"},
		{"partition -file g.txt -weights 1,2,x", `bad weight "x"`},
		{"advise -objective nope", `unknown objective "nope"`},
		{"gen -spec nope", `unknown spec "nope"`},
		{"gen -kind nope", `unknown kind "nope"`},
		{"profile -estimator nope", `unknown estimator "nope"`},
		{"profile -cluster nope", `machine "nope"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if code == 0 || stdout.Len() != 0 || !strings.Contains(lines[0], tc.want) {
			t.Errorf("proxygraph %s: exit %d, stdout %q, stderr %q; want a failure naming %q and no stdout",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
			continue
		}
		if code != 2 {
			if len(lines) != 1 {
				t.Errorf("proxygraph %s: %d stderr lines, want 1:\n%s", tc.args, len(lines), stderr.String())
			}
			continue
		}
		for _, c := range commands() {
			if !strings.Contains(stderr.String(), "\n  "+c.name+" ") {
				t.Errorf("proxygraph %s: usage does not list %q:\n%s", tc.args, c.name, stderr.String())
			}
		}
	}
}

// TestHelpListsFlagsOnStdout pins -h to a successful exit that prints the
// subcommand's flags.
func TestHelpListsFlagsOnStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stats", "-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("stats -h: exit %d, stderr %q", code, stderr.String())
	}
	for _, flag := range []string{"-file", "-vertices", "-edges", "-histogram"} {
		if !strings.Contains(stdout.String(), flag) {
			t.Errorf("stats -h does not list %s:\n%s", flag, stdout.String())
		}
	}
}
