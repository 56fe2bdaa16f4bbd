package engine

import (
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/trace"
)

func TestAccountantStallErrorPaths(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge")
	a := NewAccountant(cl, CostCoeffs{})
	rec := trace.NewRecorder()
	a.SetCollector(rec)

	// Negative and zero stalls are no-ops: no time, no trace event.
	a.Stall(-1, "bogus")
	a.Stall(0, "bogus")
	if got := a.Finish("x", "g", nil); got.SimSeconds != 0 || len(rec.Events) != 0 {
		t.Fatalf("non-positive stalls charged: sim=%v events=%v", got.SimSeconds, rec.Events)
	}

	// A positive stall advances the makespan and emits one stall event.
	b := NewAccountant(cl, CostCoeffs{})
	b.SetCollector(rec)
	b.Retire(1)
	b.Stall(2.5, "checkpoint")
	if b.simTime != 2.5 {
		t.Fatalf("stall did not advance makespan: %v", b.simTime)
	}
	want := trace.Event{Kind: trace.KindStall, Machine: -1, Label: "checkpoint", Seconds: 2.5}
	if len(rec.Events) != 1 || rec.Events[0] != want {
		t.Fatalf("stall events = %+v, want %+v", rec.Events, want)
	}
}

func TestAccountantRetire(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.xlarge")
	coeffs := CostCoeffs{OpsPerGather: 1e9}
	a := NewAccountant(cl, coeffs)
	a.Superstep([]StepCounters{{Gathers: 10}, {Gathers: 10}})
	tAlive := a.simTime
	a.Retire(1)
	if a.retiredAt[1] < 0 || a.retiredAt[0] >= 0 {
		t.Fatal("retired flags wrong")
	}
	a.Retire(1) // idempotent
	if times := a.Superstep([]StepCounters{{Gathers: 10}, {Gathers: 10}}); times[0] <= 0 || times[1] != 0 {
		t.Fatalf("step times = %v, want the dead machine at 0", times)
	}
	res := a.Finish("x", "g", nil)
	// The dead machine charged nothing in the second step.
	if res.BusySeconds[1] >= res.BusySeconds[0] {
		t.Fatalf("dead machine kept charging: %v vs %v", res.BusySeconds[1], res.BusySeconds[0])
	}
	// Energy: machine 1 was powered off at tAlive, so it draws idle power for
	// tAlive only while machine 0 idles until the final makespan.
	m := cl.Machines[0]
	want := m.Energy(res.BusySeconds[0], res.SimSeconds) + m.Energy(res.BusySeconds[1], tAlive)
	if res.EnergyJoules != want {
		t.Fatalf("energy = %v, want %v", res.EnergyJoules, want)
	}
	// Out-of-range retire is ignored.
	a.Retire(-1)
	a.Retire(99)
}

func TestAccountantEffectiveCluster(t *testing.T) {
	cl := testCluster(t, "c4.xlarge")
	a := NewAccountant(cl, CostCoeffs{OpsPerGather: 1e9})
	a.Superstep([]StepCounters{{Gathers: 10}})
	healthy := a.simTime

	// A throttled effective cluster makes the same work slower.
	slow := &cluster.Cluster{Machines: append([]cluster.Machine(nil), cl.Machines...), Net: cl.Net}
	slow.Machines[0].FreqGHz /= 2
	b := NewAccountant(cl, CostCoeffs{OpsPerGather: 1e9})
	b.setEffective(slow)
	b.Superstep([]StepCounters{{Gathers: 10}})
	if b.simTime <= healthy {
		t.Fatalf("throttled step not slower: %v vs %v", b.simTime, healthy)
	}
	// Passing the base cluster resets to healthy charging.
	b.setEffective(cl)
	if b.effective() != cl {
		t.Fatal("setEffective(base) did not reset")
	}
}

func TestRepartitionSurvivors(t *testing.T) {
	g := testGraph(3, 200, 1000)
	pl, err := NewPlacement(g, moduloOwner(g, 4), 4)
	if err != nil {
		t.Fatal(err)
	}

	dead := []bool{false, true, false, false}
	newPl, moved, err := RepartitionSurvivors(pl, dead)
	if err != nil {
		t.Fatal(err)
	}
	if moved != int64(len(pl.LocalEdges()[1])) {
		t.Fatalf("moved %d edges, machine 1 owned %d", moved, len(pl.LocalEdges()[1]))
	}
	if len(newPl.LocalEdges()[1]) != 0 {
		t.Fatalf("dead machine still owns %d edges", len(newPl.LocalEdges()[1]))
	}
	if len(newPl.MasterVerts[1]) != 0 {
		t.Fatalf("dead machine still masters %d vertices", len(newPl.MasterVerts[1]))
	}
	// Machine count and total edges preserved; survivor edges unchanged where
	// they already were.
	if newPl.M != pl.M {
		t.Fatalf("machine count changed: %d", newPl.M)
	}
	total := 0
	for _, local := range newPl.LocalEdges() {
		total += len(local)
	}
	if total != len(g.Edges) {
		t.Fatalf("edges lost: %d of %d", total, len(g.Edges))
	}
	for i, o := range pl.EdgeOwner {
		if o != 1 && newPl.EdgeOwner[i] != o {
			t.Fatalf("edge %d moved off surviving machine %d", i, o)
		}
	}
	// Determinism: same inputs, same output.
	again, moved2, err := RepartitionSurvivors(pl, dead)
	if err != nil || moved2 != moved {
		t.Fatalf("second repartition: %v, moved %d", err, moved2)
	}
	for i := range newPl.EdgeOwner {
		if newPl.EdgeOwner[i] != again.EdgeOwner[i] {
			t.Fatalf("repartition not deterministic at edge %d", i)
		}
	}

	// Cascading failure: kill another machine on top.
	dead[3] = true
	newPl2, _, err := RepartitionSurvivors(newPl, dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(newPl2.LocalEdges()[1]) != 0 || len(newPl2.LocalEdges()[3]) != 0 {
		t.Fatal("dead machines own edges after cascade")
	}

	// Error paths.
	if _, _, err := RepartitionSurvivors(pl, []bool{true}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := RepartitionSurvivors(pl, []bool{true, true, true, true}); err == nil {
		t.Error("all-dead accepted")
	}
}

func TestNewFTRunValidation(t *testing.T) {
	cl := testCluster(t, "c4.xlarge")
	if ft, err := newFTRun[int32](nil, cl); ft != nil || err != nil {
		t.Fatalf("nil config: %v, %v", ft, err)
	}
	if _, err := newFTRun[int32](&FaultConfig{CheckpointEvery: -1}, cl); err == nil {
		t.Error("negative interval accepted")
	}
	if _, err := newFTRun[int32](&FaultConfig{Policy: RecoveryPolicy(9)}, cl); err == nil {
		t.Error("unknown policy accepted")
	}
	// The nil controller's hooks are all no-ops.
	var ft *ftRun[int32]
	a := NewAccountant(cl, CostCoeffs{})
	ft.baseline(nil, nil, 0)
	ft.beforeStep(0, a)
	if r, p, err := ft.barrier(0, false, a, nil, nil, 0, nil); r != nil || p != nil || err != nil {
		t.Fatal("nil controller acted")
	}
	ft.finish(&Result{})
}
