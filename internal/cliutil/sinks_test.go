package cliutil

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"proxygraph/internal/trace"
)

// TestSinksWriteBothFiles writes a short stream to both files and checks the
// order of the completion callbacks and that each file holds its format.
func TestSinksWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom")
	s, err := OpenSinks(tracePath, metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	events := []trace.Event{
		{Kind: trace.KindStepBegin, Step: 0, Machine: -1, Label: "sync", Frontier: 4},
		{Kind: trace.KindMachineStep, Step: 0, Machine: 0, Seconds: 0.5},
		{Kind: trace.KindStepEnd, Step: 0, Machine: -1, Seconds: 0.5},
	}
	var wrote []string
	if err := s.Write(events, func(flag, path string) { wrote = append(wrote, flag+" "+path) }); err != nil {
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

func TestOpenSinksErrorsNameTheFlag(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out")
	if s, err := OpenSinks("", ""); s != nil || err != nil {
		t.Errorf("no paths: got %v, %v; want nil, nil", s, err)
	}
	if _, err := OpenSinks(bad, ""); err == nil || !strings.HasPrefix(err.Error(), "-trace-out: ") {
		t.Errorf("bad trace path: %v", err)
	}
	if _, err := OpenSinks(filepath.Join(t.TempDir(), "t.json"), bad); err == nil || !strings.HasPrefix(err.Error(), "-metrics-out: ") {
		t.Errorf("bad metrics path: %v", err)
	}
}
