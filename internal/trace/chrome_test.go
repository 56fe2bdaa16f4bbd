package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	events := syntheticRun()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("output is not valid JSON:\n%s", a.Bytes())
	}
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same stream differ")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
		if p, ok := ev["pid"].(float64); ok {
			pids[p] = true
		}
	}
	for _, want := range []string{"process_name", "step 0", "gather", "comm", "stall:checkpoint", "crash", "recovery:checkpoint", "frontier", "checkpoint"} {
		if !names[want] {
			t.Errorf("trace missing %q events; have %v", want, names)
		}
	}
	// Two machine processes plus the synthetic cluster process.
	for p := 0.0; p <= 2.0; p++ {
		if !pids[p] {
			t.Errorf("missing process %v", p)
		}
	}
}

func TestChromeTraceBarrierTimeline(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, syntheticRun()[:10]); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Step 1 starts after step 0's barrier (2.0s) plus the checkpoint stall
	// (0.25s) = 2.25s = 2.25e6 µs, on both machines simultaneously.
	found := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "step 1" && ev.TID == tidStep {
			found++
			if ev.TS != 2.25e6 {
				t.Errorf("machine %d step 1 starts at %v µs, want 2.25e6", ev.PID, ev.TS)
			}
		}
	}
	if found != 2 {
		t.Errorf("found %d step-1 spans, want 2", found)
	}
}

func TestChromeTraceHostileInput(t *testing.T) {
	events := []Event{
		{Kind: KindStepBegin, Step: -5, Machine: -1, Label: "sync", Frontier: -3},
		{Kind: KindMachineStep, Machine: 0, Seconds: math.NaN(), GatherSeconds: math.Inf(1), Gathers: math.Inf(-1)},
		{Kind: KindMachineStep, Machine: 999999, Seconds: 1}, // beyond the process cap: dropped
		{Kind: KindStall, Machine: -1, Label: "bad\x00label\xff", Seconds: math.Inf(1)},
		{Kind: Kind(250), Machine: 3},
		{Kind: KindStepEnd, Machine: -1, Seconds: -1},
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("hostile stream produced invalid JSON:\n%s", b.Bytes())
	}
}
