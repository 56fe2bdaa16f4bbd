package engine

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

func testGraph(seed uint64, n, m int) *graph.Graph {
	src := rng.New(seed)
	g := &graph.Graph{Name: "t", NumVertices: n}
	for len(g.Edges) < m {
		u := graph.VertexID(src.Intn(n))
		v := graph.VertexID(src.Intn(n))
		if u != v {
			g.Edges = append(g.Edges, graph.Edge{Src: u, Dst: v})
		}
	}
	return g
}

func moduloOwner(g *graph.Graph, m int) []Machine {
	owner := make([]Machine, len(g.Edges))
	for i := range owner {
		owner[i] = Machine(i % m)
	}
	return owner
}

func testCluster(t testing.TB, names ...string) *cluster.Cluster {
	t.Helper()
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

func TestNewPlacementValidation(t *testing.T) {
	g := testGraph(1, 10, 30)
	if _, err := NewPlacement(g, moduloOwner(g, 2), 0); err == nil {
		t.Error("0 machines should error")
	}
	if _, err := NewPlacement(g, moduloOwner(g, 2), MaxMachines+1); err == nil {
		t.Error("too many machines should error")
	}
	if _, err := NewPlacement(g, make([]Machine, 3), 2); err == nil {
		t.Error("owner length mismatch should error")
	}
	for _, p := range []Machine{7, 2, 255} {
		bad := moduloOwner(g, 2)
		bad[0] = p
		if _, err := NewPlacement(g, bad, 2); err == nil {
			t.Errorf("owner %d on 2 machines should error", p)
		}
	}
}

func TestPlacementInvariants(t *testing.T) {
	g := testGraph(2, 100, 1000)
	const m = 4
	pl, err := NewPlacement(g, moduloOwner(g, m), m)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge appears in exactly one machine's local list.
	seen := make([]bool, len(g.Edges))
	for p := 0; p < m; p++ {
		for _, ei := range pl.LocalEdges()[p] {
			if seen[ei] {
				t.Fatalf("edge %d assigned twice", ei)
			}
			seen[ei] = true
			if pl.EdgeOwner[ei] != Machine(p) {
				t.Fatalf("edge %d in machine %d's list but owned by %d", ei, p, pl.EdgeOwner[ei])
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("edge %d unassigned", i)
		}
	}
	// Every edge endpoint has a replica on the owning machine; masters are
	// replicas (or hashed for isolated vertices).
	for i, e := range g.Edges {
		p := uint(pl.EdgeOwner[i])
		if pl.ReplicaMask[e.Src]&(1<<p) == 0 || pl.ReplicaMask[e.Dst]&(1<<p) == 0 {
			t.Fatalf("edge %d endpoints lack replica on owner", i)
		}
	}
	for v := 0; v < g.NumVertices; v++ {
		mask := pl.ReplicaMask[v]
		master := pl.Master[v]
		if mask != 0 && mask&(1<<uint(master)) == 0 {
			t.Fatalf("vertex %d master %d not among replicas %b", v, master, mask)
		}
	}
	// Master lists partition the vertex set.
	total := 0
	for p := 0; p < m; p++ {
		for _, v := range pl.MasterVerts[p] {
			if pl.Master[v] != Machine(p) {
				t.Fatalf("vertex %d in machine %d master list but Master=%d", v, p, pl.Master[v])
			}
		}
		total += len(pl.MasterVerts[p])
	}
	if total != g.NumVertices {
		t.Fatalf("master lists cover %d of %d vertices", total, g.NumVertices)
	}
}

func TestReplicationFactorBounds(t *testing.T) {
	g := testGraph(3, 50, 500)
	const m = 4
	pl, _ := NewPlacement(g, moduloOwner(g, m), m)
	rf := pl.ReplicationFactor()
	if rf < 1 || rf > float64(m) {
		t.Errorf("replication factor %v outside [1, %d]", rf, m)
	}
	// Single machine: replication factor exactly 1.
	single := SingleMachine(g)
	if got := single.ReplicationFactor(); got != 1 {
		t.Errorf("single-machine replication factor = %v", got)
	}
}

func TestEdgeCountsAndImbalance(t *testing.T) {
	g := testGraph(4, 50, 400)
	pl, _ := NewPlacement(g, moduloOwner(g, 4), 4)
	counts := pl.EdgeCounts()
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != int64(len(g.Edges)) {
		t.Errorf("edge counts sum %d != %d", sum, len(g.Edges))
	}
	// Modulo assignment is perfectly uniform.
	imb := pl.Imbalance([]float64{0.25, 0.25, 0.25, 0.25})
	if imb < 1 || imb > 1.01 {
		t.Errorf("uniform imbalance = %v, want ~1", imb)
	}
	// Against a skewed target, a uniform partition is badly imbalanced.
	skewed := pl.Imbalance([]float64{0.7, 0.1, 0.1, 0.1})
	if skewed < 2 {
		t.Errorf("skewed-target imbalance = %v, want >> 1", skewed)
	}
}

func TestAccountantSuperstepBarrier(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.8xlarge")
	coeffs := CostCoeffs{OpsPerGather: 10, BytesPerGather: 10, SerialFrac: 0}
	a := NewAccountant(cl, coeffs)
	// Equal counters: the slow machine sets the barrier.
	counters := []StepCounters{{Gathers: 1e6}, {Gathers: 1e6}}
	a.Superstep(counters)
	res := a.Finish("x", "g", nil)
	slow := cl.Machines[0].ComputeTime(counters[0].work(coeffs))
	fast := cl.Machines[1].ComputeTime(counters[1].work(coeffs))
	if fast >= slow {
		t.Fatal("test premise broken: 8xlarge should be faster")
	}
	if math.Abs(res.SimSeconds-slow) > 1e-12 {
		t.Errorf("makespan %v, want slow machine's %v", res.SimSeconds, slow)
	}
	if res.BusySeconds[1] >= res.BusySeconds[0] {
		t.Error("fast machine should have less busy time")
	}
	if res.Supersteps != 1 {
		t.Errorf("supersteps = %d", res.Supersteps)
	}
}

func TestAccountantAsyncNoBarrier(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.xlarge")
	coeffs := CostCoeffs{OpsPerGather: 10, BytesPerGather: 10}
	// Two async rounds then finish: makespan = max over machines of total
	// busy, NOT the sum of per-round maxima. With identical machines and
	// anti-correlated loads the async engine must win.
	a := NewAccountant(cl, coeffs)
	r1 := []StepCounters{{Gathers: 1e6}, {Gathers: 4e6}}
	r2 := []StepCounters{{Gathers: 4e6}, {Gathers: 1e6}}
	a.Async(r1)
	a.Async(r2)
	res := a.Finish("x", "g", nil)

	b := NewAccountant(cl, coeffs)
	b.Superstep(r1)
	b.Superstep(r2)
	sres := b.Finish("x", "g", nil)
	if res.SimSeconds >= sres.SimSeconds {
		t.Errorf("async makespan %v should beat barriered %v on anti-correlated load", res.SimSeconds, sres.SimSeconds)
	}
}

func TestAccountantEnergyIncludesIdleWait(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.8xlarge")
	coeffs := CostCoeffs{OpsPerGather: 10, BytesPerGather: 40}
	// Imbalanced load: the idle tail of the fast machine burns energy.
	a := NewAccountant(cl, coeffs)
	a.Superstep([]StepCounters{{Gathers: 5e6}, {Gathers: 1e5}})
	imbalanced := a.Finish("x", "g", nil)

	b := NewAccountant(cl, coeffs)
	b.Superstep([]StepCounters{{Gathers: 1e6}, {Gathers: 4.1e6}})
	balanced := b.Finish("x", "g", nil)
	if balanced.SimSeconds >= imbalanced.SimSeconds {
		t.Fatalf("balanced run should be faster: %v vs %v", balanced.SimSeconds, imbalanced.SimSeconds)
	}
	if balanced.EnergyJoules >= imbalanced.EnergyJoules {
		t.Errorf("balanced run should save energy: %v vs %v", balanced.EnergyJoules, imbalanced.EnergyJoules)
	}
}

func TestAccountantCommCharged(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.xlarge")
	coeffs := CostCoeffs{OpsPerGather: 1, AccumBytes: 100, ValueBytes: 50}
	a := NewAccountant(cl, coeffs)
	a.Superstep([]StepCounters{{Gathers: 10, PartialsOut: 3, UpdatesOut: 2}, {}})
	res := a.Finish("x", "g", nil)
	if res.CommBytes[0] != 3*100+2*50 {
		t.Errorf("comm bytes = %v, want 400", res.CommBytes[0])
	}
	if res.CommBytes[1] != 0 {
		t.Errorf("idle machine comm = %v", res.CommBytes[1])
	}
}

// foldEach is Program.Fold spelled per edge: gather one source, combine it
// with sum. The small test programs are written against it so that they stay
// the textbook gather/sum pair; programs with a hot path write their own loop.
func foldEach[V, A any](gather func(*V) A, sum func(a, b A) A, acc A, has bool, vals []V, srcs []graph.VertexID, act []bool) (A, int32) {
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		if a := gather(&vals[s]); has {
			acc = sum(acc, a)
		} else {
			acc, has = a, true
		}
		n++
	}
	return acc, n
}

// sumProgram is a minimal GAS program: each vertex counts its in-neighbors.
type sumProgram struct{}

func (sumProgram) Name() string { return "sum" }
func (sumProgram) Coeffs() CostCoeffs {
	return CostCoeffs{OpsPerGather: 1, BytesPerGather: 1, AccumBytes: 12, ValueBytes: 12}
}
func (sumProgram) Direction() Direction              { return GatherIn }
func (sumProgram) ApplyAll() bool                    { return true }
func (sumProgram) MaxSupersteps() int                { return 1 }
func (sumProgram) Init(vals []int64, g *graph.Graph) {}
func (sumProgram) Fold(acc int64, has bool, vals []int64, srcs []graph.VertexID, act []bool) (int64, int32) {
	return foldEach(func(*int64) int64 { return 1 }, func(a, b int64) int64 { return a + b }, acc, has, vals, srcs, act)
}
func (sumProgram) Apply(vs []graph.VertexID, vals []int64, acc []int64, has []bool, rt *Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		var sum int64
		if has[v] {
			sum = acc[v]
		}
		if has[v] && sum != vals[v] {
			signal = append(signal, v)
		}
		vals[v] = sum
	}
	return signal
}

func TestRunComputesExactResultAcrossPlacements(t *testing.T) {
	g := testGraph(5, 60, 600)
	want := g.InDegrees()

	for _, m := range []int{1, 2, 4} {
		names := make([]string, m)
		for i := range names {
			names[i] = "c4.xlarge"
		}
		cl := testCluster(t, names...)
		pl, err := NewPlacement(g, moduloOwner(g, m), m)
		if err != nil {
			t.Fatal(err)
		}
		res, vals, err := Run[int64, int64](sumProgram{}, pl, cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range vals {
			if vals[v] != int64(want[v]) {
				t.Fatalf("m=%d: vertex %d sum %d, want %d", m, v, vals[v], want[v])
			}
		}
		if res.SimSeconds <= 0 {
			t.Errorf("m=%d: non-positive sim time", m)
		}
	}
}

func TestRunRejectsClusterSizeMismatch(t *testing.T) {
	g := testGraph(6, 10, 20)
	pl, _ := NewPlacement(g, moduloOwner(g, 2), 2)
	cl := testCluster(t, "c4.xlarge")
	if _, _, err := Run[int64, int64](sumProgram{}, pl, cl, Options{}); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestRunChargesMoreCommForMoreMirrors(t *testing.T) {
	g := testGraph(7, 40, 800)
	coeffs := sumProgram{}.Coeffs()
	_ = coeffs
	cl1 := testCluster(t, "c4.xlarge")
	cl4 := testCluster(t, "c4.xlarge", "c4.xlarge", "c4.xlarge", "c4.xlarge")
	res1, _, err := Run[int64, int64](sumProgram{}, SingleMachine(g), cl1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl4, _ := NewPlacement(g, moduloOwner(g, 4), 4)
	res4, _, err := Run[int64, int64](sumProgram{}, pl4, cl4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	if sum(res1.CommBytes) != 0 {
		t.Error("single machine run should have zero communication")
	}
	if sum(res4.CommBytes) == 0 {
		t.Error("4-machine run should communicate")
	}
}

func TestMaxMachinesMaskInvariant(t *testing.T) {
	// ReplicaMask is a uint64; the bound must not exceed its width.
	if MaxMachines > 64 {
		t.Fatal("MaxMachines must fit a 64-bit replica mask")
	}
	var mask uint64 = 1<<uint(MaxMachines-1) | 1
	if bits.OnesCount64(mask) != 2 {
		t.Fatal("mask sanity")
	}
}

// equalResults asserts two runs agree on all accounting.
func equalResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.SimSeconds != b.SimSeconds {
		t.Errorf("SimSeconds %v != %v", a.SimSeconds, b.SimSeconds)
	}
	if a.Supersteps != b.Supersteps {
		t.Errorf("Supersteps %d != %d", a.Supersteps, b.Supersteps)
	}
	if a.Gathers != b.Gathers {
		t.Errorf("Gathers %v != %v", a.Gathers, b.Gathers)
	}
	for p := range a.BusySeconds {
		if a.BusySeconds[p] != b.BusySeconds[p] {
			t.Errorf("machine %d busy %v != %v", p, a.BusySeconds[p], b.BusySeconds[p])
		}
		if a.CommBytes[p] != b.CommBytes[p] {
			t.Errorf("machine %d comm %v != %v", p, a.CommBytes[p], b.CommBytes[p])
		}
	}
	if a.EnergyJoules != b.EnergyJoules {
		t.Errorf("energy %v != %v", a.EnergyJoules, b.EnergyJoules)
	}
}

// rankProgram is a PageRank-like float program exercising non-associative
// float rounding, so ordering differences between engines would show up.
type rankProgram struct{}

func (rankProgram) Name() string { return "rank" }
func (rankProgram) Coeffs() CostCoeffs {
	return CostCoeffs{OpsPerGather: 6, BytesPerGather: 34, OpsPerApply: 12,
		BytesPerApply: 32, OpsPerVertex: 25, BytesPerVertex: 16,
		SerialFrac: 0.02, AccumBytes: 12, ValueBytes: 12}
}
func (rankProgram) Direction() Direction { return GatherIn }
func (rankProgram) ApplyAll() bool       { return true }
func (rankProgram) MaxSupersteps() int   { return 8 }
func (rankProgram) Init(vals []float64, g *graph.Graph) {
	for v, d := range g.OutDegrees() {
		vals[v] = 1 / float64(d+1)
	}
}
func (rankProgram) Fold(acc float64, has bool, vals []float64, srcs []graph.VertexID, act []bool) (float64, int32) {
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		if c := float64(vals[s] * 0.31); has {
			acc += c
		} else {
			acc, has = c, true
		}
		n++
	}
	return acc, n
}
func (rankProgram) Apply(vs []graph.VertexID, vals []float64, acc []float64, has []bool, rt *Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		sum := 0.0
		if has[v] {
			sum = acc[v]
		}
		vals[v] = 0.15 + 0.85*sum
	}
	return append(signal, vs...)
}

// checkEngines runs prog through RunReference and Run and asserts that both
// charge identical accounting and compute identical vertex values. The
// programs the engine tests use either run dense supersteps only or have an
// exactly associative Sum, so the comparison needs no tolerance.
func checkEngines[V comparable, A any](t *testing.T, label string, prog Program[V, A], pl *Placement, cl *cluster.Cluster) {
	t.Helper()
	refRes, refVals, err := RunReference[V, A](prog, pl, cl, Options{})
	if err != nil {
		t.Fatalf("%s reference: %v", label, err)
	}
	res, vals, err := Run[V, A](prog, pl, cl, Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	equalResults(t, refRes, res)
	for v := range refVals {
		if vals[v] != refVals[v] {
			t.Fatalf("%s: vertex %d: %v != reference %v", label, v, vals[v], refVals[v])
		}
	}
}

// TestRunMatchesReference and TestRunFrontierMatchesReference compare Run with
// RunReference on the dense and the frontier path.
func TestRunMatchesReference(t *testing.T) {
	g := testGraph(20, 500, 6000)
	for _, m := range []int{1, 2, 4, 8} {
		names := make([]string, m)
		for i := range names {
			if i%2 == 0 {
				names[i] = "c4.xlarge"
			} else {
				names[i] = "c4.2xlarge"
			}
		}
		cl := testCluster(t, names...)
		pl, err := NewPlacement(g, moduloOwner(g, m), m)
		if err != nil {
			t.Fatal(err)
		}
		checkEngines[float64, float64](t, fmt.Sprintf("m=%d", m), rankProgram{}, pl, cl)
	}
	small := testGraph(31, 120, 1200)
	pl, err := NewPlacement(small, moduloOwner(small, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	checkEngines[float64, float64](t, "small", rankProgram{}, pl, testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge"))
}

// minProgram exercises the frontier path (ApplyAll=false, GatherBoth).
type minProgram struct{}

func (minProgram) Name() string         { return "min" }
func (minProgram) Coeffs() CostCoeffs   { return rankProgram{}.Coeffs() }
func (minProgram) Direction() Direction { return GatherBoth }
func (minProgram) ApplyAll() bool       { return false }
func (minProgram) MaxSupersteps() int   { return 1000 }
func (minProgram) Init(vals []uint32, g *graph.Graph) {
	for v := range vals {
		vals[v] = uint32(v)
	}
}
func (minProgram) Fold(acc uint32, has bool, vals []uint32, srcs []graph.VertexID, act []bool) (uint32, int32) {
	return foldEach(func(src *uint32) uint32 { return *src }, func(a, b uint32) uint32 { return min(a, b) }, acc, has, vals, srcs, act)
}
func (minProgram) Apply(vs []graph.VertexID, vals []uint32, acc []uint32, has []bool, rt *Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		if has[v] && acc[v] < vals[v] {
			vals[v] = acc[v]
			signal = append(signal, v)
		}
	}
	return signal
}

func TestRunFrontierMatchesReference(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge")
	for _, g := range []*graph.Graph{testGraph(21, 400, 2000), testGraph(32, 120, 800)} {
		pl, err := NewPlacement(g, moduloOwner(g, 3), 3)
		if err != nil {
			t.Fatal(err)
		}
		checkEngines[uint32, uint32](t, fmt.Sprintf("min/%d", g.NumVertices), minProgram{}, pl, cl)
	}
}

// TestRunAndReferenceRejectClusterMismatch: both engines refuse a placement whose
// machine count differs from the cluster's.
func TestRunAndReferenceRejectClusterMismatch(t *testing.T) {
	g := testGraph(22, 20, 60)
	pl, _ := NewPlacement(g, moduloOwner(g, 2), 2)
	cl := testCluster(t, "c4.xlarge")
	if _, _, err := Run[float64, float64](rankProgram{}, pl, cl, Options{}); err == nil {
		t.Error("expected mismatch error")
	}
	if _, _, err := RunReference[float64, float64](rankProgram{}, pl, cl, Options{}); err == nil {
		t.Error("reference: expected mismatch error")
	}
}
