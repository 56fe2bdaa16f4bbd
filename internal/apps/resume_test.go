package apps

import (
	"math"
	"runtime"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/fault"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

// evolveEquiv derives a delta and its evolved graph from the shared
// equivalence-test graph.
func evolveEquiv(t *testing.T, base *graph.Graph, inserts, deletes int, seed uint64) (*graph.Delta, *graph.Graph) {
	t.Helper()
	d, err := gen.RandomDelta(base, gen.DeltaSpec{Inserts: inserts, Deletes: deletes, Time: 1}, seed)
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	return d, evolved
}

// TestCCResumeMatchesColdAllEngines is acceptance check (b) for connected
// components: labels are exact integers with a unique fixed point, so a
// delta-based resumed run must converge to values bit-identical to a cold run
// on the evolved graph — on every engine.
func TestCCResumeMatchesColdAllEngines(t *testing.T) {
	base := equivGraph(t)
	cl := heteroCluster(t)
	cc := NewConnectedComponents()

	_, prior, err := engine.RunReference[uint32, uint32](cc, moduloPlacement(t, base, 4), cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	d, evolved := evolveEquiv(t, base, 300, 300, 17)
	pl := moduloPlacement(t, evolved, 4)
	coldRes, cold, err := engine.RunReference[uint32, uint32](cc, pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	resume := cc.Resume(prior, d, evolved)
	opts := engine.Options{InitialActive: resume.Seed()}
	refRes, refVals, err := engine.RunReference[uint32, uint32](resume, pl, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, csrVals, err := engine.Run[uint32, uint32](resume, pl, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cold {
		if refVals[v] != cold[v] || csrVals[v] != cold[v] {
			t.Fatalf("vertex %d: resumed labels ref=%d csr=%d, cold=%d",
				v, refVals[v], csrVals[v], cold[v])
		}
	}
	// Resuming must not iterate longer than the cold run: the warm labelling
	// is already a partial fixed point.
	if refRes.Supersteps > coldRes.Supersteps {
		t.Errorf("resumed run took %d supersteps, cold took %d", refRes.Supersteps, coldRes.Supersteps)
	}
}

// TestCCResumeSplitsComponent pins the deletion-reset rule on a handcrafted
// split: removing a bridge must let both halves relabel, including members
// the delta never touched directly.
func TestCCResumeSplitsComponent(t *testing.T) {
	base := &graph.Graph{
		Name:        "bridge",
		NumVertices: 6,
		// One chain 0-1-2-3-4 plus isolated 5: label propagation runs over
		// both directions, so the chain is one component.
		Edges: []graph.Edge{E(0, 1), E(1, 2), E(2, 3), E(3, 4)},
	}
	cl := heteroCluster(t)
	cc := NewConnectedComponents()
	_, prior, err := engine.RunReference[uint32, uint32](cc, moduloPlacement(t, base, 4), cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	d := &graph.Delta{Time: 1, Deletes: []graph.Edge{E(2, 3)}}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	pl := moduloPlacement(t, evolved, 4)
	_, cold, err := engine.RunReference[uint32, uint32](cc, pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resume := cc.Resume(prior, d, evolved)
	_, got, err := engine.RunReference[uint32, uint32](resume, pl, cl, engine.Options{InitialActive: resume.Seed()})
	if err != nil {
		t.Fatal(err)
	}
	for v := range cold {
		if got[v] != cold[v] {
			t.Fatalf("vertex %d: resumed label %d, cold %d", v, got[v], cold[v])
		}
	}
	// The split must actually be visible: 3 and 4 can no longer share a
	// label with 0.
	if got[0] == got[3] {
		t.Fatal("deleted bridge did not split the component")
	}
}

// TestCCResumeRejectsForeignPrior: a label is a vertex ID — that is what lets
// Resume and SummarizeComponents index slices by it — so a prior labelling
// naming a vertex the evolved graph does not have fails the run with an error
// instead of being counted as one more component.
func TestCCResumeRejectsForeignPrior(t *testing.T) {
	g := &graph.Graph{Name: "pair", NumVertices: 3, Edges: []graph.Edge{E(0, 1)}}
	d := &graph.Delta{Time: 1, Deletes: []graph.Edge{E(0, 1)}}
	pl, cl := engine.SingleMachine(g), singleCluster(t)

	res, err := NewConnectedComponents().Resume([]uint32{0, 0, 2}, d, g).Run(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output.(Components); got.Count != 2 || got.Largest != 2 {
		t.Errorf("got %d components, largest %d; want 2 and 2", got.Count, got.Largest)
	}
	if _, err := NewConnectedComponents().Resume([]uint32{0, 0, 7}, d, g).Run(pl, cl); err == nil {
		t.Error("a prior label 7 on a 3-vertex graph ran without an error")
	}
	defer func() {
		if recover() == nil {
			t.Error("SummarizeComponents counted label 7 of a 3-vertex labelling")
		}
	}()
	SummarizeComponents([]uint32{0, 0, 7})
}

// TestCCResumeBytes pins what Resume allocates to what the resumed run reads:
// one flag byte per evolved vertex, and the seed frontier at its bound of
// 4 B for every reset vertex and both endpoints of every insertion, plus
// 16 KiB for the resume value. Separate reset-label, seeded and reset arrays
// cost two bytes per vertex more and fail it.
func TestCCResumeBytes(t *testing.T) {
	base := testGraph(t, 29, 20000, 80000)
	cc := NewConnectedComponents()
	res, err := cc.Run(moduloPlacement(t, base, 4), heteroCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	prior := res.Output.(Components).Labels
	d, evolved := evolveEquiv(t, base, len(base.Edges)/100, len(base.Edges)/200, 3)

	resetLabels := map[uint32]bool{}
	for _, e := range d.Deletes {
		resetLabels[prior[e.Src]], resetLabels[prior[e.Dst]] = true, true
	}
	resets := 0
	for _, label := range prior {
		if resetLabels[label] {
			resets++
		}
	}
	resume := func() { cc.Resume(prior, d, evolved) }
	resume()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		resume()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	ceiling := uint64(evolved.NumVertices + 4*(resets+2*len(d.Inserts)) + 16<<10)
	t.Logf("%d vertices, %d resets, %d inserts: %d bytes per Resume, ceiling %d", evolved.NumVertices, resets, len(d.Inserts), got, ceiling)
	if got > ceiling {
		t.Errorf("Resume allocates %d bytes, want at most 1·|V| + 4·(resets + 2·inserts) + 16 KiB = %d", got, ceiling)
	}
}

// TestPRResumeWithinEnvelope is acceptance check (b) for PageRank: the
// tolerance-stopped fixed point is not bit-exact across different starting
// vectors, but resumed and cold ranks must agree per vertex within
// 2·Tolerance/(1−Damping), and resuming must not take more supersteps.
func TestPRResumeWithinEnvelope(t *testing.T) {
	base := equivGraph(t)
	cl := heteroCluster(t)
	pr := NewPageRank()

	_, priorStates, err := engine.RunReference[prState, float64](pr, moduloPlacement(t, base, 4), cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prior := make([]float64, len(priorStates))
	for i, s := range priorStates {
		prior[i] = s.rank
	}

	_, evolved := evolveEquiv(t, base, 60, 60, 23)
	pl := moduloPlacement(t, evolved, 4)
	coldRes, coldStates, err := engine.RunReference[prState, float64](pr, pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	resume := pr.Resume(prior)
	envelope := 2 * pr.Tolerance / (1 - pr.Damping)
	run := func(name string, vals []prState, res *engine.Result) {
		t.Helper()
		for v := range coldStates {
			if diff := math.Abs(vals[v].rank - coldStates[v].rank); diff > envelope {
				t.Fatalf("%s: vertex %d resumed rank %v vs cold %v (diff %v > envelope %v)",
					name, v, vals[v].rank, coldStates[v].rank, diff, envelope)
			}
		}
		if res != nil && res.Supersteps > coldRes.Supersteps {
			t.Errorf("%s: resumed run took %d supersteps, cold took %d", name, res.Supersteps, coldRes.Supersteps)
		}
	}
	refRes, refVals, err := engine.RunReference[prState, float64](resume, pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run("reference", refVals, refRes)
	_, csrVals, err := engine.Run[prState, float64](resume, pl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run("csr", csrVals, nil)
}

// TestChaosAmendedPlacement is the chaos satellite: a placement produced by
// incremental amendment, driven by a warm-started program, must recover from
// seeded fault schedules to exactly the fault-free answer with bitwise
// accounting agreement across both legs — the same guarantees the
// chaos suite pins for cold placements.
func TestChaosAmendedPlacement(t *testing.T) {
	base := equivGraph(t)
	cl := heteroCluster(t)
	shares := partition.UniformShares(4)
	part := partition.NewHDRF()

	basePl, err := partition.Apply(part, base, shares, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, evolved := evolveEquiv(t, base, 200, 200, 21)
	pl, err := partition.AmendApply(part, basePl, d, evolved, shares, 7)
	if err != nil {
		t.Fatal(err)
	}

	cc := NewConnectedComponents()
	_, prior, err := engine.RunReference[uint32, uint32](cc, basePl, cl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resume := cc.Resume(prior, d, evolved)
	seedOpts := engine.Options{InitialActive: resume.Seed()}

	_, want, err := engine.RunReference[uint32, uint32](resume, pl, cl, seedOpts)
	if err != nil {
		t.Fatal(err)
	}

	for _, schedSeed := range []uint64{1, 2, 3} {
		sched, err := fault.NewSchedule(schedSeed, fault.Spec{
			Machines: 4, Horizon: 6, Crashes: 2, Stragglers: 2, NetworkFaults: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := &engine.FaultConfig{
			Injector:        sched,
			CheckpointEvery: 3,
			Policy:          engine.RecoverCheckpoint,
		}
		refRec, csrRec := trace.NewRecorder(), trace.NewRecorder()
		refRes, refVals, err := engine.RunReference[uint32, uint32](resume, pl, cl,
			engine.Options{Fault: cfg, InitialActive: resume.Seed(), Trace: refRec})
		if err != nil {
			t.Fatalf("schedule %d reference: %v", schedSeed, err)
		}
		csrRes, csrVals, err := engine.Run[uint32, uint32](resume, pl, cl,
			engine.Options{Fault: cfg, InitialActive: resume.Seed(), Trace: csrRec})
		if err != nil {
			t.Fatalf("schedule %d csr: %v", schedSeed, err)
		}
		sameAccounting(t, "amended/csr", refRes, csrRes)
		sameEvents(t, "amended/csr", refRec.Events, csrRec.Events)
		for v := range want {
			if refVals[v] != want[v] || csrVals[v] != want[v] {
				t.Fatalf("schedule %d vertex %d: ref=%d csr=%d, fault-free %d",
					schedSeed, v, refVals[v], csrVals[v], want[v])
			}
		}
	}
}
