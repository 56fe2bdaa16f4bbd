package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"proxygraph/internal/core"
	"proxygraph/internal/trace"
)

// TestSubcommandsMatchGoldenFiles runs every offline-flow subcommand in one
// directory, with relative paths, and compares stdout byte for byte (run and
// bench have goldens of their own). The rows read the
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
		// α = 1.8746 lies in [1.85, 1.90): the default proxy set covers
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
// or unknown subcommand also lists all seven subcommands.
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
		{"run -app nope", `unknown application "nope"`},
		{"run -repeat 0", "-repeat must be at least 1, got 0"},
		{"run -spec nope", `unknown spec "nope"`},
		{"run -app pagerank -sources 1,2 -landmarks 3", "-landmarks only applies to landmark_oracle, not pagerank"},
		// Fault options need the synchronous engine's supersteps.
		{"run -app triangle_count -checkpoint 2 -spec wiki -scale 1024 -estimator default", "triangle_count does not run on the synchronous GAS engine"},
		{"bench -exp nonsense", `unknown experiment "nonsense"`},
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
		if n := len(commands()); n != 7 {
			t.Errorf("%d subcommands, want 7", n)
		}
		for _, c := range commands() {
			if !strings.Contains(stderr.String(), "\n  "+c.name+" ") {
				t.Errorf("proxygraph %s: usage does not list %q:\n%s", tc.args, c.name, stderr.String())
			}
		}
	}
}

// TestHelpListsFlagsOnStdout pins -h to a successful exit that prints the
// subcommand's flags: every one of run's 24 and bench's 9.
func TestHelpListsFlagsOnStdout(t *testing.T) {
	for _, tc := range []struct {
		cmd   string
		flags []string
	}{
		{"stats", []string{"edges", "file", "histogram", "vertices"}},
		{"run", []string{"algo", "app", "checkpoint", "cluster", "cpuprofile", "crashes", "estimator",
			"evolve-deletes", "evolve-inserts", "fault-seed", "file", "landmarks", "metrics-out", "netfaults",
			"pool", "recovery", "repeat", "scale", "seed", "sources", "spec", "stragglers", "trace", "trace-out"}},
		{"bench", []string{"cpuprofile", "csv", "exp", "html", "list", "metrics-out", "scale", "seed", "trace-out"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.cmd, "-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("%s -h: exit %d, stderr %q", tc.cmd, code, stderr.String())
		}
		var listed []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "  -"); ok {
				listed = append(listed, strings.Fields(name)[0])
			}
		}
		if !slices.Equal(listed, tc.flags) {
			t.Errorf("%s -h lists %q, want %q:\n%s", tc.cmd, listed, tc.flags, stdout.String())
		}
	}
}

func TestParseSharesUniform(t *testing.T) {
	s, err := parseShares("", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if v != 0.25 {
			t.Fatalf("uniform shares = %v", s)
		}
	}
}

func TestParseSharesWeighted(t *testing.T) {
	s, err := parseShares("1, 3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-0.25) > 1e-12 || math.Abs(s[1]-0.75) > 1e-12 {
		t.Errorf("shares = %v", s)
	}
}

func TestParseSharesErrors(t *testing.T) {
	for _, spec := range []string{"1,x", "0,1", "-1,2", "NaN,1", "1,+Inf"} {
		if _, err := parseShares(spec, 2); err == nil {
			t.Errorf("spec %q should error", spec)
		}
	}
	for _, machines := range []int{-1, 0, 65} {
		if s, err := parseShares("", machines); err == nil {
			t.Errorf("%d machines should error, got shares %v", machines, s)
		}
	}
}

func TestParseEstimator(t *testing.T) {
	for _, name := range []string{"prior-work", "default"} {
		est, err := parseEstimator(name, 64, 1)
		if err != nil || est == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	est, err := parseEstimator("proxy", 4096, 1)
	if err != nil || est.Name() != "proxy" {
		t.Errorf("proxy: %v", err)
	}
	if _, err := parseEstimator("magic", 64, 1); err == nil {
		t.Error("unknown estimator should error")
	}
}

// TestSinksWriteBothFiles writes a short stream to both files and checks the
// order of the completion callbacks and that each file holds its format.
func TestSinksWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom")
	s, err := openSinks(tracePath, metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	events := []trace.Event{
		{Kind: trace.KindStepBegin, Step: 0, Machine: -1, Label: "sync", Frontier: 4},
		{Kind: trace.KindMachineStep, Step: 0, Machine: 0, Seconds: 0.5},
		{Kind: trace.KindStepEnd, Step: 0, Machine: -1, Seconds: 0.5},
	}
	var wrote []string
	if err := s.write(events, func(flagName, path string) { wrote = append(wrote, flagName+" "+path) }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"-trace-out " + tracePath, "-metrics-out " + metricsPath}; !slices.Equal(wrote, want) {
		t.Fatalf("callbacks %q, want %q", wrote, want)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Errorf("-trace-out file is not JSON:\n%s", raw)
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "proxygraph_steps_total") {
		t.Errorf("-metrics-out file lacks the step counter:\n%s", prom)
	}
}

func TestOpenSinksFailsFastOnUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "out.json")
	if _, err := openSinks(bad, ""); err == nil {
		t.Error("unwritable -trace-out must fail before the run")
	}
	if _, err := openSinks("", bad); err == nil {
		t.Error("unwritable -metrics-out must fail before the run")
	}
	good := filepath.Join(t.TempDir(), "trace.json")
	if _, err := openSinks(good, bad); err == nil {
		t.Error("unwritable -metrics-out with good -trace-out must still fail")
	}
}

func TestOpenSinksNilWhenUnset(t *testing.T) {
	s, err := openSinks("", "")
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatal("no output flags should mean no sinks")
	}
}

// TestOpenSinksErrorsNameTheFlag pins an unwritable path, either one, to an
// error naming its flag.
func TestOpenSinksErrorsNameTheFlag(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out")
	if _, err := openSinks(bad, ""); err == nil || !strings.HasPrefix(err.Error(), "-trace-out: ") {
		t.Errorf("bad trace path: %v", err)
	}
	if _, err := openSinks(filepath.Join(t.TempDir(), "t.json"), bad); err == nil || !strings.HasPrefix(err.Error(), "-metrics-out: ") {
		t.Errorf("bad metrics path: %v", err)
	}
}
