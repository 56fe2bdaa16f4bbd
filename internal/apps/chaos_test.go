package apps

import (
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/fault"
	"proxygraph/internal/trace"
)

// This file is the chaos/equivalence suite of the fault-tolerance ISSUE: for
// deterministic fault schedules, every engine must (a) recover to the same
// final vertex values the fault-free run produces — exactly for min/max/
// integer programs, within 1e-12 for float sums, which may re-associate when
// replayed supersteps run on the repartitioned survivor placement — and (b)
// charge identical simulated time/energy to the last bit across both
// engines, with checkpoint and recovery overhead visibly priced in.

// *fault.Schedule must satisfy the engine's injector interface.
var _ engine.FaultInjector = (*fault.Schedule)(nil)

// chaosSchedule covers all three fault kinds early enough that every app is
// still running: machine 1 crashes at the barrier ending superstep 1, machine
// 2 runs throttled for supersteps 0-2, and the network degrades over
// supersteps 1-2.
func chaosSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Straggler, Step: 0, Machine: 2, Duration: 3, Factor: 0.5},
		{Kind: fault.Crash, Step: 1, Machine: 1},
		{Kind: fault.Network, Step: 1, Duration: 2, Factor: 0.4},
	}}
}

// hasStall reports whether the stream charged a stall of the given kind.
func hasStall(events []trace.Event, kind string) bool {
	for _, e := range events {
		if e.Kind == trace.KindStall && e.Label == kind {
			return true
		}
	}
	return false
}

// checkChaos runs prog fault-free on the reference engine, then under cfg on
// both legs, asserting value equivalence against the fault-free run and
// bitwise accounting and event equivalence across the faulted runs. It
// returns the faulted reference run and its events.
func checkChaos[V, A any](t *testing.T, name string, prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, cfg *engine.FaultConfig, eq func(a, b V) bool) (*engine.Result, []trace.Event) {
	t.Helper()

	_, baseVals, err := engine.RunReference[V, A](prog, pl, cl, engine.Options{})
	if err != nil {
		t.Fatalf("%s fault-free: %v", name, err)
	}

	refRec, csrRec := trace.NewRecorder(), trace.NewRecorder()
	refRes, refVals, err := engine.RunReference[V, A](prog, pl, cl, engine.Options{Fault: cfg, Trace: refRec})
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	csrRes, csrVals, err := engine.Run[V, A](prog, pl, cl, engine.Options{Fault: cfg, Trace: csrRec})
	if err != nil {
		t.Fatalf("%s csr: %v", name, err)
	}

	sameAccounting(t, name+"/csr", refRes, csrRes)
	sameEvents(t, name+"/csr", refRec.Events, csrRec.Events)
	if refRes.Checkpoints != csrRes.Checkpoints || refRes.Recoveries != csrRes.Recoveries {
		t.Errorf("%s: protocol counters disagree: ref %d/%d csr %d/%d", name,
			refRes.Checkpoints, refRes.Recoveries, csrRes.Checkpoints, csrRes.Recoveries)
	}

	for v := range baseVals {
		if !eq(baseVals[v], refVals[v]) {
			t.Fatalf("%s/reference: vertex %d recovered to %v, fault-free %v", name, v, refVals[v], baseVals[v])
		}
		if !eq(baseVals[v], csrVals[v]) {
			t.Fatalf("%s/csr: vertex %d recovered to %v, fault-free %v", name, v, csrVals[v], baseVals[v])
		}
	}
	return refRes, refRec.Events
}

func TestChaosRecoverySixApps(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	cfg := &engine.FaultConfig{
		Injector:        chaosSchedule(),
		CheckpointEvery: 2,
		Policy:          engine.RecoverCheckpoint,
	}

	check := func(t *testing.T, res *engine.Result, events []trace.Event, baseline float64) {
		t.Helper()
		if res.Recoveries < 1 {
			t.Fatal("scheduled crash never fired")
		}
		if res.Checkpoints < 1 {
			t.Fatal("no checkpoint written")
		}
		if !hasStall(events, "recover") || !hasStall(events, "checkpoint") {
			t.Fatal("trace is missing recover/checkpoint stalls")
		}
		if res.SimSeconds <= baseline {
			t.Fatalf("faulted run not slower than fault-free: %v <= %v", res.SimSeconds, baseline)
		}
	}

	t.Run("pagerank", func(t *testing.T) {
		base, err := NewPageRank().Run(pl, cl)
		if err != nil {
			t.Fatal(err)
		}
		res, events := checkChaos[prState, float64](t, "pagerank", NewPageRank(), pl, cl, cfg,
			func(a, b prState) bool { return floatClose(a.rank, b.rank) && a.invOut == b.invOut })
		check(t, res, events, base.SimSeconds)
	})
	t.Run("components", func(t *testing.T) {
		base, err := NewConnectedComponents().Run(pl, cl)
		if err != nil {
			t.Fatal(err)
		}
		res, events := checkChaos[uint32, uint32](t, "components", NewConnectedComponents(), pl, cl, cfg, exact[uint32])
		check(t, res, events, base.SimSeconds)
	})
	t.Run("bfs", func(t *testing.T) {
		base, err := NewBFS().Run(pl, cl)
		if err != nil {
			t.Fatal(err)
		}
		res, events := checkChaos[int32, int32](t, "bfs", NewBFS(), pl, cl, cfg, exact[int32])
		check(t, res, events, base.SimSeconds)
	})
	t.Run("hops", func(t *testing.T) {
		// Min is exactly associative even on floats, so recovery must be
		// bitwise despite the replay running on a different placement.
		res, _ := checkChaos[float64, float64](t, "hops", hopsProgram{}, pl, cl, cfg, exact[float64])
		if res.Recoveries < 1 {
			t.Fatal("scheduled crash never fired")
		}
	})
	t.Run("core-cascade", func(t *testing.T) {
		res, _ := checkChaos[coreState, int32](t, "core-cascade", cascadeProgram{k: 3}, pl, cl, cfg, exact[coreState])
		if res.Recoveries < 1 {
			t.Fatal("scheduled crash never fired")
		}
	})
	t.Run("clusterbfs", func(t *testing.T) {
		// OR is exactly associative, so recovery must be bitwise even though
		// the replay runs on the repartitioned survivor placement.
		prog := &ClusterBFS{Sources: spreadSources(g.NumVertices, MaxBatchSources), MaxIters: 1000}
		res, _ := checkChaos[ClusterState, uint64](t, "clusterbfs", prog, pl, cl, cfg, exact[ClusterState])
		if res.Recoveries < 1 {
			t.Fatal("scheduled crash never fired")
		}
	})
}

// TestChaosSeededSchedules drives the generator end to end: seeded random
// schedules, every engine, value equivalence after recovery.
func TestChaosSeededSchedules(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)

	for _, seed := range []uint64{1, 7, 99} {
		sched, err := fault.NewSchedule(seed, fault.Spec{
			Machines: 4, Horizon: 6, Crashes: 2, Stragglers: 2, NetworkFaults: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := &engine.FaultConfig{Injector: sched, CheckpointEvery: 3, Policy: engine.RecoverCheckpoint}
		checkChaos[uint32, uint32](t, sched.String(), NewConnectedComponents(), pl, cl, cfg, exact[uint32])
		checkChaos[prState, float64](t, sched.String(), NewPageRank(), pl, cl, cfg,
			func(a, b prState) bool { return floatClose(a.rank, b.rank) && a.invOut == b.invOut })
	}
}

// TestChaosFullRestart pins the baseline recovery policy: correct values, and
// strictly more expensive than checkpoint recovery when a crash fires late.
func TestChaosFullRestart(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	sched := &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, Step: 5, Machine: 3}}}

	restart := &engine.FaultConfig{Injector: sched, CheckpointEvery: 2, Policy: engine.RecoverRestart}
	ckpt := &engine.FaultConfig{Injector: sched, CheckpointEvery: 2, Policy: engine.RecoverCheckpoint}

	resRestart, _ := checkChaos[prState, float64](t, "pagerank-restart", NewPageRank(), pl, cl, restart,
		func(a, b prState) bool { return floatClose(a.rank, b.rank) })
	resCkpt, _ := checkChaos[prState, float64](t, "pagerank-ckpt", NewPageRank(), pl, cl, ckpt,
		func(a, b prState) bool { return floatClose(a.rank, b.rank) })

	if resRestart.Recoveries != 1 || resCkpt.Recoveries != 1 {
		t.Fatalf("recoveries: restart %d, checkpoint %d", resRestart.Recoveries, resCkpt.Recoveries)
	}
	if resRestart.SimSeconds <= resCkpt.SimSeconds {
		t.Fatalf("full restart (%v s) not slower than checkpoint recovery (%v s)",
			resRestart.SimSeconds, resCkpt.SimSeconds)
	}
}

// TestChaosTransientOnly: with stragglers and network faults but no crash,
// the computation path is untouched — values bitwise identical, supersteps
// equal — while the makespan strictly grows.
func TestChaosTransientOnly(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Straggler, Step: 1, Machine: 0, Duration: 4, Factor: 0.3},
		{Kind: fault.Network, Step: 2, Duration: 3, Factor: 0.5},
	}}
	if err := sched.Validate(pl.M); err != nil {
		t.Fatal(err)
	}

	base, baseVals, err := engine.Run[prState, float64](NewPageRank(), pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, vals, err := engine.Run[prState, float64](NewPageRank(), pl, cl,
		engine.Options{Fault: &engine.FaultConfig{Injector: sched}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range baseVals {
		if vals[v] != baseVals[v] {
			t.Fatalf("vertex %d perturbed by transient fault: %v != %v", v, vals[v], baseVals[v])
		}
	}
	if res.Supersteps != base.Supersteps {
		t.Fatalf("supersteps changed: %d != %d", res.Supersteps, base.Supersteps)
	}
	if res.SimSeconds <= base.SimSeconds {
		t.Fatalf("transient faults free: %v <= %v", res.SimSeconds, base.SimSeconds)
	}
	if res.Recoveries != 0 || res.Checkpoints != 0 {
		t.Fatalf("unexpected protocol activity: %d/%d", res.Checkpoints, res.Recoveries)
	}
}

// TestChaosCheckpointNeverFree: checkpointing with no faults still costs
// simulated time and energy.
func TestChaosCheckpointNeverFree(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)

	base, baseVals, err := engine.Run[uint32, uint32](NewConnectedComponents(), pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, vals, err := engine.Run[uint32, uint32](NewConnectedComponents(), pl, cl,
		engine.Options{Fault: &engine.FaultConfig{CheckpointEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range baseVals {
		if vals[v] != baseVals[v] {
			t.Fatalf("vertex %d changed by checkpointing: %v != %v", v, vals[v], baseVals[v])
		}
	}
	if res.Checkpoints < base.Supersteps-1 {
		t.Fatalf("only %d checkpoints over %d supersteps", res.Checkpoints, base.Supersteps)
	}
	if res.SimSeconds <= base.SimSeconds {
		t.Fatalf("checkpointing was free in time: %v <= %v", res.SimSeconds, base.SimSeconds)
	}
	if res.EnergyJoules <= base.EnergyJoules {
		t.Fatalf("checkpointing was free in energy: %v <= %v", res.EnergyJoules, base.EnergyJoules)
	}
}
