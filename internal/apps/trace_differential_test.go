package apps

import (
	"bytes"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/trace"
)

// This file extends the equivalence and chaos suites to the structured event
// layer: both legs must emit *identical* event sequences — the same
// barriers, the same per-machine phase times, the same frontier sizes, the
// same fault-protocol decisions — for every program, with and without faults.
// trace.Event is comparable, so identity is slices.Equal, and on top of it
// the Chrome trace JSON and Prometheus expositions must be byte-identical
// (they are pure functions of the event stream).

// tracedRun executes prog on one engine with a recorder attached and returns
// the event stream plus the run result.
func tracedRun[V, A any](t *testing.T, which string, prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) ([]trace.Event, *engine.Result) {
	t.Helper()
	rec := trace.NewRecorder()
	opts.Trace = rec
	var (
		res *engine.Result
		err error
	)
	switch which {
	case "reference":
		res, _, err = engine.RunReference[V, A](prog, pl, cl, opts)
	case "csr":
		res, _, err = engine.Run[V, A](prog, pl, cl, opts)
	default:
		t.Fatalf("unknown engine %q", which)
	}
	if err != nil {
		t.Fatalf("%s: %v", which, err)
	}
	return rec.Events, res
}

// exporters renders the stream both ways; byte equality of these across
// engines is what -trace-out users rely on.
func exporters(t *testing.T, events []trace.Event) (chrome, prom []byte) {
	t.Helper()
	var chromeBuf, promBuf bytes.Buffer
	if err := trace.WriteChromeTrace(&chromeBuf, events); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	trace.Observe(reg, events)
	if err := reg.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	return chromeBuf.Bytes(), promBuf.Bytes()
}

// firstDiff pinpoints where two event streams diverge for the failure report.
func firstDiff(a, b []trace.Event) (int, trace.Event, trace.Event) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, a[i], b[i]
		}
	}
	return n, trace.Event{}, trace.Event{}
}

func checkTraceDifferential[V, A any](t *testing.T, name string, prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) {
	t.Helper()
	refEvents, refRes := tracedRun[V, A](t, "reference", prog, pl, cl, opts)
	csrEvents, _ := tracedRun[V, A](t, "csr", prog, pl, cl, opts)

	if len(refEvents) == 0 {
		t.Fatalf("%s: no events recorded", name)
	}
	sameEvents(t, name, refEvents, csrEvents)

	refChrome, refProm := exporters(t, refEvents)
	chrome, prom := exporters(t, csrEvents)
	if !bytes.Equal(refChrome, chrome) {
		t.Errorf("%s: Chrome trace JSON differs between reference and csr", name)
	}
	if !bytes.Equal(refProm, prom) {
		t.Errorf("%s: Prometheus exposition differs between reference and csr", name)
	}

	// The stream must carry the whole run: one step-begin per executed
	// superstep (replays included) and per-machine coverage every step.
	begins, machineSteps := 0, 0
	for _, e := range refEvents {
		switch e.Kind {
		case trace.KindStepBegin:
			begins++
		case trace.KindMachineStep:
			machineSteps++
		}
	}
	if begins != refRes.Supersteps {
		t.Errorf("%s: %d step-begin events for %d charged supersteps", name, begins, refRes.Supersteps)
	}
	if machineSteps == 0 {
		t.Errorf("%s: no machine-step events", name)
	}

	// The summary's clock must agree exactly with the accountant's.
	sum := trace.Summarize(refEvents)
	if sum.MakespanSeconds != refRes.SimSeconds {
		t.Errorf("%s: summary makespan %v != result %v", name, sum.MakespanSeconds, refRes.SimSeconds)
	}
	if sum.Checkpoints != refRes.Checkpoints || sum.Recoveries != refRes.Recoveries {
		t.Errorf("%s: summary protocol counts %d/%d, result %d/%d",
			name, sum.Checkpoints, sum.Recoveries, refRes.Checkpoints, refRes.Recoveries)
	}
}

func TestTraceDifferentialSixApps(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)

	chaos := engine.Options{Fault: &engine.FaultConfig{
		Injector:        chaosSchedule(),
		CheckpointEvery: 2,
		Policy:          engine.RecoverCheckpoint,
	}}

	type variant struct {
		name string
		opts engine.Options
	}
	variants := []variant{{"clean", engine.Options{}}, {"chaos", chaos}}

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Run("pagerank", func(t *testing.T) {
				checkTraceDifferential[prState, float64](t, "pagerank", NewPageRank(), pl, cl, v.opts)
			})
			t.Run("components", func(t *testing.T) {
				checkTraceDifferential[uint32, uint32](t, "components", NewConnectedComponents(), pl, cl, v.opts)
			})
			t.Run("bfs", func(t *testing.T) {
				checkTraceDifferential[int32, int32](t, "bfs", NewBFS(), pl, cl, v.opts)
			})
			t.Run("hops", func(t *testing.T) {
				checkTraceDifferential[float64, float64](t, "hops", hopsProgram{}, pl, cl, v.opts)
			})
			t.Run("core-cascade", func(t *testing.T) {
				checkTraceDifferential[coreState, int32](t, "core-cascade", cascadeProgram{k: 3}, pl, cl, v.opts)
			})
			t.Run("clusterbfs", func(t *testing.T) {
				prog := &ClusterBFS{Sources: spreadSources(g.NumVertices, MaxBatchSources), MaxIters: 1000}
				checkTraceDifferential[ClusterState, uint64](t, "clusterbfs", prog, pl, cl, v.opts)
			})
		})
	}
}

// TestTraceChaosEventCoverage asserts the chaos stream actually exercises the
// fault-protocol event kinds the differential test is comparing.
func TestTraceChaosEventCoverage(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	opts := engine.Options{Fault: &engine.FaultConfig{
		Injector:        chaosSchedule(),
		CheckpointEvery: 2,
		Policy:          engine.RecoverCheckpoint,
	}}
	events, _ := tracedRun[prState, float64](t, "csr", NewPageRank(), pl, cl, opts)
	seen := map[trace.Kind]bool{}
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, k := range []trace.Kind{
		trace.KindStepBegin, trace.KindMachineStep, trace.KindStepEnd, trace.KindStall,
		trace.KindFault, trace.KindCheckpoint, trace.KindCrash, trace.KindRecovery,
	} {
		if !seen[k] {
			t.Errorf("chaos run never emitted %v", k)
		}
	}
}

// TestTraceNilCollectorIdentical pins the zero-behaviour-change guarantee: a
// traced run and an untraced run charge bit-identical accounting.
func TestTraceNilCollectorIdentical(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	_, traced := tracedRun[prState, float64](t, "csr", NewPageRank(), pl, cl, engine.Options{})
	plain, _, err := engine.Run[prState, float64](NewPageRank(), pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAccounting(t, "traced-vs-plain", plain, traced)
}

// TestTraceColoringAsync covers the async app: Coloring's rounds must appear
// as async events whose folded makespan matches the result.
func TestTraceColoringAsync(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	rec := trace.NewRecorder()
	res, err := Run(NewColoring(), pl, cl, engine.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(rec.Events)
	if sum.AsyncRounds == 0 {
		t.Fatal("coloring emitted no async rounds")
	}
	if sum.SyncSteps != 0 {
		t.Errorf("coloring emitted %d sync steps", sum.SyncSteps)
	}
	if sum.MakespanSeconds != res.SimSeconds {
		t.Errorf("summary makespan %v != result %v", sum.MakespanSeconds, res.SimSeconds)
	}
	plain, err := NewColoring().Run(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	sameAccounting(t, "coloring-traced-vs-plain", plain, res)
}
