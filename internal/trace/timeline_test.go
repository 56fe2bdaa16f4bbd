package trace_test

import (
	"strings"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/trace"
)

// traceRun charges two sync steps and an async round on a small and a big
// machine through a recording accountant, then, as the engine's fault
// protocol does, crashes the small machine and stalls the cluster to recover.
func traceRun(t *testing.T) (*engine.Result, []trace.Event) {
	t.Helper()
	small, _ := cluster.ByName("c4.xlarge")
	big, _ := cluster.ByName("c4.8xlarge")
	cl, err := cluster.New(small, big)
	if err != nil {
		t.Fatal(err)
	}
	a := engine.NewAccountant(cl, engine.CostCoeffs{OpsPerGather: 10, BytesPerGather: 10})
	rec := trace.NewRecorder()
	a.SetCollector(rec)
	a.StepBegin(0, 2, "sync")
	a.Superstep([]engine.StepCounters{{Gathers: 4e6}, {Gathers: 4e6}})
	a.StepBegin(1, 2, "sync")
	a.Superstep([]engine.StepCounters{{Gathers: 5e5}, {Gathers: 2e7}})
	a.StepBegin(2, 2, "async")
	a.Async([]engine.StepCounters{{Gathers: 1e6}, {Gathers: 1e6}})
	rec.Event(trace.Event{Kind: trace.KindCrash, Step: 2, Machine: 0})
	a.Retire(0)
	a.Stall(1e-3, "recover")
	return a.Finish("tracetest", "g", nil), rec.Events
}

// TestTraceRecorded checks the accountant's stream carries the timeline: each
// step's machine times, the sync barrier as their maximum (the makespan's
// increment) and the Superstep return value equal to what was emitted.
func TestTraceRecorded(t *testing.T) {
	small, _ := cluster.ByName("c4.xlarge")
	big, _ := cluster.ByName("c4.8xlarge")
	cl, err := cluster.New(small, big)
	if err != nil {
		t.Fatal(err)
	}
	a := engine.NewAccountant(cl, engine.CostCoeffs{OpsPerGather: 10, BytesPerGather: 10})
	rec := trace.NewRecorder()
	a.SetCollector(rec)
	a.StepBegin(0, 2, "sync")
	times := append([]float64(nil), a.Superstep([]engine.StepCounters{{Gathers: 4e6}, {Gathers: 4e6}})...)
	// Equal gathers on unequal machines: the xlarge straggles.
	if times[0] <= times[1] {
		t.Errorf("step times %v: the xlarge should be slower", times)
	}
	var machine []float64
	var barrier float64
	for _, e := range rec.Events {
		switch e.Kind {
		case trace.KindMachineStep:
			machine = append(machine, e.Seconds)
		case trace.KindStepEnd:
			if e.Label != "sync" {
				t.Errorf("step end label %q, want sync", e.Label)
			}
			barrier = e.Seconds
		}
	}
	if len(machine) != 2 || machine[0] != times[0] || machine[1] != times[1] {
		t.Errorf("machine-step seconds %v, Superstep returned %v", machine, times)
	}
	if barrier != times[0] {
		t.Errorf("barrier %v, want the straggler's %v", barrier, times[0])
	}

	rec.Reset()
	a.StepBegin(1, 2, "async")
	a.Async([]engine.StepCounters{{Gathers: 1e6}, {Gathers: 1e6}})
	res := a.Finish("tracetest", "g", nil)
	if last := rec.Events[len(rec.Events)-1]; last.Kind != trace.KindStepEnd || last.Label != "async" || last.Seconds != 0 {
		t.Errorf("async round closed by %+v, want a zero-second async step end", last)
	}
	if res.SimSeconds < barrier {
		t.Errorf("makespan %v below the sync barrier %v", res.SimSeconds, barrier)
	}
}

func TestTraceGanttRenders(t *testing.T) {
	res, events := traceRun(t)
	out := trace.Gantt(events, res.App+" on "+res.Graph, res.SimSeconds, 30)
	for _, want := range []string{"tracetest on g: 4 phases", "step", "sync", "async", "recover", "#", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	// One row per (phase, machine) plus a header.
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 1+4*2 {
		t.Fatalf("gantt has %d lines, want 9:\n%s", len(lines), out)
	}
	// The crashed machine waits out no stall: its recover row is empty and
	// the survivor stars.
	if !strings.HasSuffix(lines[7], "|                              | ") || !strings.HasSuffix(lines[8], "|*") {
		t.Errorf("recover rows should bar only the survivor:\n%s\n%s", lines[7], lines[8])
	}
	// Degenerate inputs do not panic.
	if got := trace.Gantt(nil, "x", 0, 5); !strings.Contains(got, "empty trace") {
		t.Errorf("empty trace rendering = %q", got)
	}
}

func TestStragglerShare(t *testing.T) {
	_, events := traceRun(t)
	shares := trace.StragglerShare(events)
	if len(shares) != 2 {
		t.Fatalf("shares = %v", shares)
	}
	// The small machine straggles in steps 0 and 2 (equal load), the big one
	// in step 1 (40x load) and, as the only survivor, in the recovery stall.
	if shares[0] != 0.5 || shares[1] != 0.5 {
		t.Errorf("shares = %v, want [0.5 0.5]", shares)
	}
	if trace.StragglerShare(nil) != nil {
		t.Error("an empty stream should yield nil shares")
	}
}
