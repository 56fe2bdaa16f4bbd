package apps

import (
	"math"
	"slices"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/dynamic"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// This file is the cross-engine equivalence suite: six applications run
// through engine.RunReference (the original edge-list engine kept as
// executable specification) and through engine.Run (machine-local CSR blocks,
// hybrid frontier), and both runs must produce byte-identical simulation
// accounting. Vertex values must match exactly for min/max/integer programs
// and within 1e-12 for float sums, which may re-associate on sparse
// supersteps. The other differentials (chaos, trace, resume, ClusterBFS)
// compare the same two legs.

// equivGraph is a power-law graph big enough that frontier programs pass
// through both dense and sparse supersteps.
func equivGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "equiv", Vertices: 1500, Edges: 6000, Kind: gen.KindPowerLaw,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// heteroCluster mixes machine types so per-machine times differ and any
// misattributed counter shifts the makespan.
func heteroCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	names := []string{"c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge"}
	machines := make([]cluster.Machine, len(names))
	for i, n := range names {
		m, ok := cluster.ByName(n)
		if !ok {
			t.Fatalf("unknown machine %q", n)
		}
		machines[i] = m
	}
	cl, err := cluster.New(machines...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// sameAccounting asserts bitwise equality of everything the simulation
// charges: no tolerances, the engines must agree to the last bit.
func sameAccounting(t *testing.T, label string, a, b *engine.Result) {
	t.Helper()
	if a.SimSeconds != b.SimSeconds {
		t.Errorf("%s: SimSeconds %v != %v", label, a.SimSeconds, b.SimSeconds)
	}
	if a.Supersteps != b.Supersteps {
		t.Errorf("%s: Supersteps %d != %d", label, a.Supersteps, b.Supersteps)
	}
	if a.Gathers != b.Gathers {
		t.Errorf("%s: Gathers %v != %v", label, a.Gathers, b.Gathers)
	}
	if a.EnergyJoules != b.EnergyJoules {
		t.Errorf("%s: EnergyJoules %v != %v", label, a.EnergyJoules, b.EnergyJoules)
	}
	for p := range a.BusySeconds {
		if a.BusySeconds[p] != b.BusySeconds[p] {
			t.Errorf("%s: machine %d BusySeconds %v != %v", label, p, a.BusySeconds[p], b.BusySeconds[p])
		}
		if a.CommBytes[p] != b.CommBytes[p] {
			t.Errorf("%s: machine %d CommBytes %v != %v", label, p, a.CommBytes[p], b.CommBytes[p])
		}
	}
}

// sameEvents asserts two legs emitted identical event streams: the per-step
// timeline agrees, barrier by barrier, not only its sum.
func sameEvents(t *testing.T, label string, a, b []trace.Event) {
	t.Helper()
	if !slices.Equal(a, b) {
		i, x, y := firstDiff(a, b)
		t.Errorf("%s: event streams differ (len %d vs %d) at event %d:\n%+v\n%+v", label, len(a), len(b), i, x, y)
	}
}

// checkEquivalence runs prog through the reference engine and through Run,
// and compares accounting bitwise and values with eq.
func checkEquivalence[V, A any](t *testing.T, name string, prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, eq func(a, b V) bool) {
	t.Helper()

	refRec, csrRec := trace.NewRecorder(), trace.NewRecorder()
	refRes, refVals, err := engine.RunReference[V, A](prog, pl, cl, engine.Options{Trace: refRec})
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	csrRes, csrVals, err := engine.Run[V, A](prog, pl, cl, engine.Options{Trace: csrRec})
	if err != nil {
		t.Fatalf("%s csr: %v", name, err)
	}

	sameAccounting(t, name+"/csr", refRes, csrRes)
	sameEvents(t, name+"/csr", refRec.Events, csrRec.Events)

	for v := range refVals {
		if !eq(refVals[v], csrVals[v]) {
			t.Fatalf("%s/csr: vertex %d value %v != reference %v", name, v, csrVals[v], refVals[v])
		}
	}
}

// exact is the comparator for min/max/integer programs.
func exact[V comparable](a, b V) bool { return a == b }

// floatClose allows 1e-12 relative drift from sparse-superstep
// re-association of float sums.
func floatClose(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// hopsProgram is a test-local SSSP over unit weights: float64 distances,
// fold = min over src+1. Min is exactly associative even on floats, so both
// legs must agree bitwise; it exercises the GatherIn + frontier
// combination none of the shipped apps cover.
type hopsProgram struct{}

func (hopsProgram) Name() string                { return "hops" }
func (hopsProgram) Coeffs() engine.CostCoeffs   { return NewBFS().Coeffs() }
func (hopsProgram) Direction() engine.Direction { return engine.GatherIn }
func (hopsProgram) ApplyAll() bool              { return false }
func (hopsProgram) MaxSupersteps() int          { return 500 }

func (hopsProgram) Init(vals []float64, g *graph.Graph) {
	for v := range vals {
		vals[v] = math.Inf(1)
	}
	vals[0] = 0
}

func (hopsProgram) Fold(acc float64, has bool, vals []float64, srcs []graph.VertexID, act []bool) (float64, int32) {
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		if c := vals[s] + 1; has {
			acc = math.Min(acc, c)
		} else {
			acc, has = c, true
		}
		n++
	}
	return acc, n
}

func (hopsProgram) Apply(vs []graph.VertexID, vals []float64, acc []float64, has []bool, rt *engine.Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		if has[v] && acc[v] < vals[v] {
			vals[v] = acc[v]
			signal = append(signal, v)
		}
	}
	return signal
}

// coreState is cascadeProgram's vertex state: the residual degree and whether
// the vertex has been peeled.
type coreState struct {
	deg     int32
	removed bool
}

// cascadeProgram peels vertices of residual degree < K, a fixed-k slice of
// k-core decomposition. Integer sums keep it exact; removals cascade through
// shrinking frontiers, stressing the sparse path and the dirty-set reset.
type cascadeProgram struct{ k int32 }

func (cascadeProgram) Name() string                { return "core-cascade" }
func (cascadeProgram) Coeffs() engine.CostCoeffs   { return NewConnectedComponents().Coeffs() }
func (cascadeProgram) Direction() engine.Direction { return engine.GatherBoth }
func (cascadeProgram) ApplyAll() bool              { return false }
func (cascadeProgram) MaxSupersteps() int          { return 500 }

func (cascadeProgram) Init(vals []coreState, g *graph.Graph) {
	for _, e := range g.Edges {
		vals[e.Src].deg++
		vals[e.Dst].deg++
	}
}

// Fold: a neighbor that was just peeled contributes one lost degree.
func (cascadeProgram) Fold(acc int32, has bool, vals []coreState, srcs []graph.VertexID, act []bool) (int32, int32) {
	var lost, n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		if vals[s].removed {
			lost++
		}
		n++
	}
	if n == 0 {
		return acc, 0
	}
	if has {
		lost += acc
	}
	return lost, n
}

// Apply: only the transition into removal signals neighbors, so each peeled
// vertex is gathered from exactly once. A surviving vertex does not signal and
// still keeps the degree it just lowered in place.
func (p cascadeProgram) Apply(vs []graph.VertexID, vals []coreState, acc []int32, has []bool, rt *engine.Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		val := &vals[v]
		if val.removed {
			continue
		}
		if has[v] {
			val.deg -= acc[v]
		}
		if val.deg < p.k {
			val.removed = true
			signal = append(signal, v)
		}
	}
	return signal
}

func TestEngineEquivalenceSixApps(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)

	t.Run("pagerank", func(t *testing.T) {
		checkEquivalence[prState, float64](t, "pagerank", NewPageRank(), pl, cl,
			func(a, b prState) bool { return floatClose(a.rank, b.rank) && a.invOut == b.invOut })
	})
	t.Run("components", func(t *testing.T) {
		checkEquivalence[uint32, uint32](t, "components", NewConnectedComponents(), pl, cl, exact[uint32])
	})
	t.Run("bfs", func(t *testing.T) {
		checkEquivalence[int32, int32](t, "bfs", NewBFS(), pl, cl, exact[int32])
	})
	t.Run("hops", func(t *testing.T) {
		checkEquivalence[float64, float64](t, "hops", hopsProgram{}, pl, cl, exact[float64])
	})
	t.Run("core-cascade", func(t *testing.T) {
		checkEquivalence[coreState, int32](t, "core-cascade", cascadeProgram{k: 3}, pl, cl, exact[coreState])
	})
	t.Run("clusterbfs", func(t *testing.T) {
		// Word-valued vertex state: OR-accumulated reach bits are exactly
		// associative, so the packed batch must agree to the last bit.
		prog := &ClusterBFS{Sources: spreadSources(g.NumVertices, MaxBatchSources), MaxIters: 1000}
		checkEquivalence[ClusterState, uint64](t, "clusterbfs", prog, pl, cl, exact[ClusterState])
	})
}

// checkRebalancedEquivalence runs prog through the same two legs with a fresh
// identically-seeded Migrator each, asserting bitwise-equal accounting and
// equal outputs. Migration decisions depend only on the per-step busy times,
// which the equivalence suite already proves bitwise identical, so every
// engine must fire the same migrations at the same barriers.
func checkRebalancedEquivalence[V, A any](t *testing.T, name string, prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, eq func(a, b V) bool) {
	t.Helper()
	newMig := func() *dynamic.Migrator {
		mig := dynamic.NewMigrator(21)
		mig.Trigger = 1.05
		return mig
	}
	refMig, refRec := newMig(), trace.NewRecorder()
	refRes, refVals, err := engine.RunReference[V, A](prog, pl, cl, engine.Options{Rebalancer: refMig, Trace: refRec})
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	csrMig, csrRec := newMig(), trace.NewRecorder()
	csrRes, csrVals, err := engine.Run[V, A](prog, pl, cl, engine.Options{Rebalancer: csrMig, Trace: csrRec})
	if err != nil {
		t.Fatalf("%s csr: %v", name, err)
	}

	if refMig.Migrations == 0 {
		t.Fatalf("%s: migrator never fired on the heterogeneous cluster", name)
	}
	if csrMig.Migrations != refMig.Migrations {
		t.Fatalf("%s: migration counts diverge: ref=%d csr=%d", name, refMig.Migrations, csrMig.Migrations)
	}
	if csrMig.EdgesMoved != refMig.EdgesMoved {
		t.Fatalf("%s: moved-edge counts diverge: ref=%d csr=%d", name, refMig.EdgesMoved, csrMig.EdgesMoved)
	}
	sameAccounting(t, name+"/rebalanced-csr", refRes, csrRes)
	sameEvents(t, name+"/rebalanced-csr", refRec.Events, csrRec.Events)
	for v := range refVals {
		if !eq(refVals[v], csrVals[v]) {
			t.Fatalf("%s: csr value diverges at vertex %d", name, v)
		}
	}
}

// TestEngineEquivalenceRebalanced proves Rebalancer support is identical in
// the reference engine and in Run: dynamic migration keeps both legs on the
// same trajectory, and Run sweeps every freshly compiled placement.
func TestEngineEquivalenceRebalanced(t *testing.T) {
	// The equivalence graph is too sparse here: network time dominates and is
	// identical per machine, so the migrator stays quiet. A denser graph on a
	// compute-skewed cluster (mixed core counts → mixed memory bandwidth)
	// produces the imbalance the migrator exists to fix.
	g, err := gen.Generate(gen.Spec{
		Name: "equiv-rebalance", Vertices: 10000, Edges: 120000, Kind: gen.KindPowerLaw,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	pl := moduloPlacement(t, g, 4)

	t.Run("pagerank", func(t *testing.T) {
		checkRebalancedEquivalence[prState, float64](t, "pagerank", NewPageRank(), pl, cl,
			func(a, b prState) bool { return floatClose(a.rank, b.rank) && a.invOut == b.invOut })
	})
	t.Run("components", func(t *testing.T) {
		checkRebalancedEquivalence[uint32, uint32](t, "components", NewConnectedComponents(), pl, cl, exact[uint32])
	})
}
