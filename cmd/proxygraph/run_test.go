package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

// runOK runs proxygraph with args in process and returns its stdout, failing
// the test on a non-zero exit.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("proxygraph %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.Bytes()
}

// TestRepeatAndProfileLeaveTheReportAlone pins run's report, timeline
// included, to golden bytes: bfs and kcore as printed before -repeat and
// -cpuprofile existed, and one app per kind of timeline phase — async rounds
// (coloring, pagerank_async), a one-shot step (triangle_count), SSSP's rounds,
// and checkpoint and recovery stalls around a retired machine (pagerank with
// faults). -repeat 1 changes nothing, more runs and a profile add exactly the
// wall-time line, and the profile is written.
func TestRepeatAndProfileLeaveTheReportAlone(t *testing.T) {
	for _, tc := range []struct {
		golden string
		app    []string
	}{
		{"bfs", []string{"-app", "bfs"}},
		{"kcore", []string{"-app", "kcore"}},
		{"coloring", []string{"-app", "coloring"}},
		{"pagerank_async", []string{"-app", "pagerank_async"}},
		{"triangle_count", []string{"-app", "triangle_count"}},
		{"sssp", []string{"-app", "sssp"}},
		{"pagerank_faults", []string{"-app", "pagerank", "-fault-seed", "1", "-crashes", "1", "-checkpoint", "4"}},
	} {
		app := tc.golden
		want, err := os.ReadFile(filepath.Join("testdata", app+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"run"}, tc.app...)
		args = append(args, "-spec", "wiki", "-scale", "256", "-estimator", "default", "-trace")
		if got := runOK(t, append(args, "-repeat", "1")...); !bytes.Equal(got, want) {
			t.Errorf("%s -repeat 1: report differs from the golden file\n got:\n%s\nwant:\n%s", app, got, want)
		}
		profile := filepath.Join(t.TempDir(), "cpu.prof")
		got := runOK(t, append(args, "-repeat", "3", "-cpuprofile", profile)...)
		var kept [][]byte
		wallLines := 0
		for _, line := range bytes.SplitAfter(got, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("host wall time ")) && bytes.Contains(line, []byte("fastest of 3 runs")) {
				wallLines++
				continue
			}
			kept = append(kept, line)
		}
		if wallLines != 1 || !bytes.Equal(bytes.Join(kept, nil), want) {
			t.Errorf("%s -repeat 3: want the golden report plus one wall-time line, got:\n%s", app, got)
		}
		if info, err := os.Stat(profile); err != nil || info.Size() == 0 {
			t.Errorf("%s: -cpuprofile left no profile behind (%v)", app, err)
		}
	}
}

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestFaultOptionsValidation(t *testing.T) {
	cl := testCluster(t)
	cases := []struct {
		name       string
		seed       uint64
		crashes    int
		checkpoint int
		recovery   string
		wantErr    string
	}{
		{"negative checkpoint", 0, 0, -1, "checkpoint", "non-negative"},
		{"negative checkpoint with faults", 7, 1, -3, "checkpoint", "non-negative"},
		{"bad recovery policy", 7, 1, 2, "yolo", "unknown recovery policy"},
		{"faults without seed", 0, 2, 0, "checkpoint", "without -fault-seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := faultOptions(cl, tc.seed, tc.crashes, 0, 0, tc.checkpoint, tc.recovery)
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestFaultOptionsPlainPath(t *testing.T) {
	cl := testCluster(t)
	opts, sched, err := faultOptions(cl, 0, 0, 0, 0, 0, "checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	if opts != nil {
		t.Fatalf("all-zero fault flags should select the plain Run path, got %+v", opts)
	}
	if sched != "" {
		t.Fatalf("plain path should carry no schedule text, got %q", sched)
	}
}

func TestFaultOptionsCheckpointOnly(t *testing.T) {
	cl := testCluster(t)
	opts, sched, err := faultOptions(cl, 0, 0, 0, 0, 4, "restart")
	if err != nil {
		t.Fatal(err)
	}
	if opts == nil || opts.Fault == nil {
		t.Fatal("checkpoint-only flags must produce fault options")
	}
	if opts.Fault.CheckpointEvery != 4 || opts.Fault.Policy != engine.RecoverRestart {
		t.Fatalf("options mistranslated: %+v", opts.Fault)
	}
	if sched != "fault-free" {
		t.Fatalf("schedule text = %q, want fault-free", sched)
	}
}

// testPlacement places a small Table II graph for app on testCluster with
// uniform shares.
func testPlacement(t *testing.T, app apps.App) (*engine.Placement, *cluster.Cluster) {
	t.Helper()
	cl := testCluster(t)
	g, err := gen.Generate(gen.RealGraphs()[0].Scale(1024), 42)
	if err != nil {
		t.Fatal(err)
	}
	ccr, err := core.Uniform{}.Estimate(cl, app)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := ccr.SharesFor(cl)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := partition.Apply(partition.NewHybrid(), g, shares, 42)
	if err != nil {
		t.Fatal(err)
	}
	return pl, cl
}

// TestRunTracedWritesArtifacts drives run's observability path: run PageRank
// with a recorder, write both sinks, and check the trace is valid Chrome JSON
// and the metrics are non-empty Prometheus text.
func TestRunTracedWritesArtifacts(t *testing.T) {
	app := apps.NewPageRank()
	pl, cl := testPlacement(t, app)

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	outs, err := openSinks(tracePath, metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	res, err := runTraced(app, pl, cl, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Supersteps == 0 {
		t.Fatal("traced run produced no result")
	}
	if len(rec.Events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	if err := outs.write(rec.Events, func(string, string) {}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace output has no events")
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "proxygraph_steps_total") {
		t.Fatalf("metrics output missing expected family:\n%s", prom)
	}
}

// TestRunTracedRejectsFaultsOffEngine pins what the apps off the synchronous
// engine accept: a recorder, like every app, but no fault options.
func TestRunTracedRejectsFaultsOffEngine(t *testing.T) {
	app, err := apps.ByName("triangle_count")
	if err != nil {
		t.Fatal(err)
	}
	pl, cl := testPlacement(t, app)
	// Fault options are input errors: there are no engine supersteps to
	// inject faults into or checkpoint between.
	if _, err := runTraced(app, pl, cl, &engine.Options{}, nil); err == nil {
		t.Fatal("triangle_count with fault options must be rejected")
	}
	for _, app := range []apps.App{app, apps.NewColoring()} {
		rec := trace.NewRecorder()
		if _, err := runTraced(app, pl, cl, nil, rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Events) == 0 {
			t.Fatalf("traced %s recorded no events", app.Name())
		}
	}
}

// TestTraceOutKCore drives -trace-out on kcore, an app off the engine that
// used to refuse tracing: the file is Chrome JSON carrying the run's steps
// and the report names it.
func TestTraceOutKCore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kcore.json")
	out := runOK(t, "run", "-app", "kcore", "-spec", "wiki", "-scale", "256", "-estimator", "default", "-trace-out", path)
	if !bytes.Contains(out, []byte("trace              "+path)) || !bytes.Contains(out, []byte("execution summary: 27 sync steps")) {
		t.Errorf("report does not name the trace and its 27 steps:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	steps := 0
	for _, e := range doc.TraceEvents {
		if e["name"] == "step 26" {
			steps++
		}
	}
	if steps != 2 {
		t.Errorf("want the last step on both machines, found it %d times", steps)
	}
}
