package fault_test

import (
	"strings"
	"testing"

	"proxygraph/internal/fault"
)

// TestFaultScheduleGenerator pins determinism and validation of the seeded
// generator.
func TestFaultScheduleGenerator(t *testing.T) {
	spec := fault.Spec{Machines: 4, Horizon: 10, Crashes: 2, Stragglers: 3, NetworkFaults: 2}
	a, err := fault.NewSchedule(42, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fault.NewSchedule(42, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed, different event counts")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed, different event %d: %+v != %+v", i, a.Events[i], b.Events[i])
		}
	}
	c, err := fault.NewSchedule(43, spec)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "crash") {
		t.Fatalf("String() = %q", a.String())
	}

	// Crash machines are distinct and crash steps distinct.
	seenM, seenS := map[int]bool{}, map[int]bool{}
	for _, e := range a.Events {
		if e.Kind != fault.Crash {
			continue
		}
		if seenM[e.Machine] || seenS[e.Step] {
			t.Fatalf("duplicate crash machine/step: %+v", e)
		}
		seenM[e.Machine] = true
		seenS[e.Step] = true
	}

	// Invalid specs are rejected.
	for _, bad := range []fault.Spec{
		{Machines: 0, Horizon: 5},
		{Machines: 2, Horizon: 0},
		{Machines: 2, Horizon: 5, Crashes: 2},
		{Machines: 2, Horizon: 5, Crashes: -1},
		{Machines: 4, Horizon: 2, Crashes: 3},
	} {
		if _, err := fault.NewSchedule(1, bad); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	var empty fault.Schedule
	if empty.String() != "fault-free" {
		t.Errorf("empty schedule renders %q", empty.String())
	}
	if empty.Crash(0) != -1 {
		t.Error("empty schedule crashes")
	}
}
