package apps

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
)

// ValidateColoring confirms no edge connects two same-colored vertices.
func ValidateColoring(g *graph.Graph, colors []int32) error {
	for i, e := range g.Edges {
		if colors[e.Src] == colors[e.Dst] {
			return fmt.Errorf("coloring: edge %d (%d-%d) endpoints share color %d", i, e.Src, e.Dst, colors[e.Src])
		}
	}
	return nil
}

func testGraph(t *testing.T, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "apps-test", Vertices: int64(n), Edges: int64(m), Kind: gen.KindPowerLaw,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func singleCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	m, _ := cluster.ByName("c4.xlarge")
	cl, err := cluster.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func multiCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	m, _ := cluster.ByName("c4.xlarge")
	machines := make([]cluster.Machine, n)
	for i := range machines {
		machines[i] = m
	}
	cl, err := cluster.New(machines...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func moduloPlacement(t *testing.T, g *graph.Graph, m int) *engine.Placement {
	t.Helper()
	owner := make([]engine.Machine, len(g.Edges))
	for i := range owner {
		owner[i] = engine.Machine(i % m)
	}
	pl, err := engine.NewPlacement(g, owner, m)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// E builds an edge literal for tests.
func E(u, v int) graph.Edge {
	return graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}
}

// sortedUndirected is the naive statement of the undirected neighbor sets,
// built without graph.BuildUndirectedSets: expand every edge into both rows,
// sort each row, drop repeats. The spec loops read it, so a differential test
// against one also checks the unsorted sets against independently sorted rows.
func sortedUndirected(g *graph.Graph) *graph.CSR {
	rows := make([][]graph.VertexID, g.NumVertices)
	for _, e := range g.Edges {
		rows[e.Src] = append(rows[e.Src], e.Dst)
		rows[e.Dst] = append(rows[e.Dst], e.Src)
	}
	c := &graph.CSR{Offsets: make([]int64, g.NumVertices+1)}
	for v, row := range rows {
		slices.Sort(row)
		c.Targets = append(c.Targets, slices.Compact(row)...)
		c.Offsets[v+1] = int64(len(c.Targets))
	}
	return c
}

// --- Reference implementations ---

// refPageRank runs dense PageRank with damping d until maxIters.
func refPageRank(g *graph.Graph, d float64, iters int) []float64 {
	n := g.NumVertices
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1
	}
	out := g.OutDegrees()
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = 1 - d
		}
		for _, e := range g.Edges {
			if out[e.Src] > 0 {
				next[e.Dst] += d * rank[e.Src] / float64(out[e.Src])
			}
		}
		rank = next
	}
	return rank
}

// refComponents returns component count via union-find.
func refComponents(g *graph.Graph) int {
	parent := make([]int, g.NumVertices)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(int(e.Src)), find(int(e.Dst))
		if a != b {
			parent[a] = b
		}
	}
	roots := map[int]bool{}
	for i := range parent {
		roots[find(i)] = true
	}
	return len(roots)
}

// refTriangles counts triangles via per-edge adjacency-set intersection.
func refTriangles(g *graph.Graph) int64 {
	adj := make([]map[graph.VertexID]bool, g.NumVertices)
	for i := range adj {
		adj[i] = map[graph.VertexID]bool{}
	}
	for _, e := range g.Edges {
		adj[e.Src][e.Dst] = true
		adj[e.Dst][e.Src] = true
	}
	var count int64
	for v := 0; v < g.NumVertices; v++ {
		for u := range adj[v] {
			if u <= graph.VertexID(v) {
				continue
			}
			for w := range adj[v] {
				if w <= u {
					continue
				}
				if adj[u][w] {
					count++
				}
			}
		}
	}
	return count
}

// --- PageRank ---

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t, 1, 500, 3000)
	pr := NewPageRank()
	pr.Tolerance = 0 // run all iterations so the reference matches exactly
	pr.MaxIters = 15
	res, err := pr.Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.([]float64)
	want := refPageRank(g, 0.85, 15)
	for v := range got {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPageRankRanksSumToN(t *testing.T) {
	g := testGraph(t, 2, 400, 2400)
	// With no dangling-vertex correction the sum is only approximately N;
	// most mass must be preserved on a graph where most vertices have
	// out-edges.
	res, err := NewPageRank().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	ranks := res.Output.([]float64)
	sum := 0.0
	for _, r := range ranks {
		if r < 0.149 { // minimum rank is (1-d) = 0.15
			t.Fatalf("rank %v below (1-d)", r)
		}
		sum += r
	}
	if sum < 0.5*float64(g.NumVertices) || sum > 1.5*float64(g.NumVertices) {
		t.Errorf("rank sum %v vs N=%d", sum, g.NumVertices)
	}
}

func TestPageRankInvariantAcrossPlacements(t *testing.T) {
	g := testGraph(t, 3, 300, 1800)
	pr := NewPageRank()
	pr.Tolerance = 0
	pr.MaxIters = 10
	res1, err := pr.Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	res4, err := pr.Run(moduloPlacement(t, g, 4), multiCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	r1 := res1.Output.([]float64)
	r4 := res4.Output.([]float64)
	for v := range r1 {
		if math.Abs(r1[v]-r4[v]) > 1e-9 {
			t.Fatalf("vertex %d: partition changed result: %v vs %v", v, r1[v], r4[v])
		}
	}
}

func TestPageRankConvergesEarly(t *testing.T) {
	g := testGraph(t, 4, 300, 1500)
	pr := NewPageRank()
	pr.MaxIters = 100
	pr.Tolerance = 1e-2
	res, err := pr.Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps >= 100 {
		t.Errorf("PageRank did not converge early: %d supersteps", res.Supersteps)
	}
	if res.Supersteps < 3 {
		t.Errorf("suspiciously fast convergence: %d supersteps", res.Supersteps)
	}
}

// --- Connected Components ---

func TestComponentsMatchReference(t *testing.T) {
	for seed := uint64(10); seed < 15; seed++ {
		g := testGraph(t, seed, 300, 700)
		res, err := NewConnectedComponents().Run(engine.SingleMachine(g), singleCluster(t))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Output.(Components)
		want := refComponents(g)
		if got.Count != want {
			t.Errorf("seed %d: %d components, want %d", seed, got.Count, want)
		}
	}
}

func TestComponentsLabelsAreComponentMinima(t *testing.T) {
	g := testGraph(t, 16, 200, 400)
	res, err := NewConnectedComponents().Run(moduloPlacement(t, g, 2), multiCluster(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Output.(Components).Labels
	// Every edge's endpoints share a label.
	for _, e := range g.Edges {
		if labels[e.Src] != labels[e.Dst] {
			t.Fatalf("edge (%d,%d) spans labels %d and %d", e.Src, e.Dst, labels[e.Src], labels[e.Dst])
		}
	}
	// The label is the smallest vertex ID in the component.
	for v, l := range labels {
		if uint32(v) < l {
			t.Fatalf("vertex %d has label %d > own id", v, l)
		}
		if labels[l] != l {
			t.Fatalf("label %d is not its own label", l)
		}
	}
}

func TestComponentsDisconnected(t *testing.T) {
	// Two triangles, no connection.
	g := &graph.Graph{NumVertices: 6, Edges: []graph.Edge{
		E(0, 1), E(1, 2), E(2, 0), E(3, 4), E(4, 5), E(5, 3),
	}}
	res, err := NewConnectedComponents().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.(Components)
	if got.Count != 2 || got.Largest != 3 {
		t.Errorf("got %d components, largest %d; want 2 and 3", got.Count, got.Largest)
	}
}

// --- Coloring ---

func TestColoringIsProper(t *testing.T) {
	for seed := uint64(20); seed < 24; seed++ {
		g := testGraph(t, seed, 400, 2400)
		res, err := NewColoring().Run(moduloPlacement(t, g, 2), multiCluster(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		out := res.Output.(ColoringResult)
		if err := ValidateColoring(g, out.Colors); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if out.NumColors < 2 {
			t.Errorf("seed %d: %d colors on a non-trivial graph", seed, out.NumColors)
		}
		if out.Rounds >= NewColoring().MaxRounds {
			t.Errorf("seed %d: coloring did not converge (%d rounds)", seed, out.Rounds)
		}
	}
}

func TestColoringColorCountReasonable(t *testing.T) {
	g := testGraph(t, 25, 1000, 3000)
	res, err := NewColoring().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.(ColoringResult)
	// Greedy coloring uses at most maxDegree+1 colors.
	if out.NumColors > g.MaxDegree()+1 {
		t.Errorf("%d colors exceeds greedy bound %d", out.NumColors, g.MaxDegree()+1)
	}
}

func TestColoringCompleteGraph(t *testing.T) {
	// K5 needs exactly 5 colors.
	g := &graph.Graph{NumVertices: 5}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
		}
	}
	res, err := NewColoring().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.(ColoringResult)
	if out.NumColors != 5 {
		t.Errorf("K5 colored with %d colors, want 5", out.NumColors)
	}
	if err := ValidateColoring(g, out.Colors); err != nil {
		t.Error(err)
	}
}

// --- Triangle Count ---

func TestTriangleCountMatchesReference(t *testing.T) {
	for seed := uint64(30); seed < 34; seed++ {
		g := testGraph(t, seed, 200, 1200)
		res, err := NewTriangleCount().Run(moduloPlacement(t, g, 3), multiCluster(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Output.(TriangleResult).Total
		want := refTriangles(g)
		if got != want {
			t.Errorf("seed %d: %d triangles, want %d", seed, got, want)
		}
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// A triangle plus a pendant edge: exactly one triangle.
	g := &graph.Graph{NumVertices: 4, Edges: []graph.Edge{E(0, 1), E(1, 2), E(2, 0), E(2, 3)}}
	res, err := NewTriangleCount().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if count := res.Output.(TriangleResult).Total; count != 1 {
		t.Errorf("triangle+pendant = %d, want 1", count)
	}
	// K4 has 4 triangles.
	k4 := &graph.Graph{NumVertices: 4}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.Edges = append(k4.Edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
		}
	}
	res, err = NewTriangleCount().Run(engine.SingleMachine(k4), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if count := res.Output.(TriangleResult).Total; count != 4 {
		t.Errorf("K4 = %d triangles, want 4", count)
	}
}

func TestTriangleCountHandlesDuplicateAndReverseEdges(t *testing.T) {
	// Triangle with duplicated and reversed edges must still count once.
	g := &graph.Graph{NumVertices: 3, Edges: []graph.Edge{
		E(0, 1), E(1, 0), E(1, 2), E(2, 1), E(2, 0), E(0, 2), E(0, 1),
	}}
	res, err := NewTriangleCount().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if count := res.Output.(TriangleResult).Total; count != 1 {
		t.Errorf("got %d, want 1", count)
	}
}

func TestTriangleCountInvariantAcrossPlacements(t *testing.T) {
	g := testGraph(t, 35, 300, 2000)
	res1, err := NewTriangleCount().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	res4, err := NewTriangleCount().Run(moduloPlacement(t, g, 4), multiCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Output.(TriangleResult).Total != res4.Output.(TriangleResult).Total {
		t.Error("triangle count depends on partitioning")
	}
}

// --- BFS ---

func TestBFSDistances(t *testing.T) {
	// Path 0-1-2-3 plus isolated vertex 4.
	g := &graph.Graph{NumVertices: 5, Edges: []graph.Edge{E(0, 1), E(1, 2), E(2, 3)}}
	res, err := NewBFS().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.([]int32)
	want := []int32{0, 1, 2, 3, -1}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSUsesUndirectedEdges(t *testing.T) {
	// Edge points 1->0; BFS from 0 must still reach 1.
	g := &graph.Graph{NumVertices: 2, Edges: []graph.Edge{E(1, 0)}}
	res, err := NewBFS().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output.([]int32); got[1] != 1 {
		t.Errorf("dist[1] = %d, want 1", got[1])
	}
}

func TestBFSInvariantAcrossPlacements(t *testing.T) {
	g := testGraph(t, 40, 400, 1600)
	res1, err := NewBFS().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := NewBFS().Run(moduloPlacement(t, g, 4), multiCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	d1 := res1.Output.([]int32)
	d2 := res2.Output.([]int32)
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("dist[%d] differs across placements: %d vs %d", v, d1[v], d2[v])
		}
	}
}

// --- Registry and cross-cutting ---

func mustMachine(t *testing.T, name string) cluster.Machine {
	t.Helper()
	m, ok := cluster.ByName(name)
	if !ok {
		t.Fatalf("unknown machine %q", name)
	}
	return m
}

func TestRegistry(t *testing.T) {
	if len(All()) != 4 {
		t.Errorf("All() has %d apps, want the paper's 4", len(All()))
	}
	if len(WithExtensions()) <= len(All()) {
		t.Error("extensions should add applications")
	}
	for _, name := range []string{"pagerank", "coloring", "connected_components", "triangle_count", "bfs"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestAppsChargeTimeAndEnergy(t *testing.T) {
	g := testGraph(t, 50, 400, 2400)
	cl := multiCluster(t, 2)
	pl := moduloPlacement(t, g, 2)
	for _, app := range WithExtensions() {
		res, err := app.Run(pl, cl)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if res.SimSeconds <= 0 {
			t.Errorf("%s: sim time %v", app.Name(), res.SimSeconds)
		}
		if res.EnergyJoules <= 0 {
			t.Errorf("%s: energy %v", app.Name(), res.EnergyJoules)
		}
		if res.App != app.Name() {
			t.Errorf("result app %q != %q", res.App, app.Name())
		}
	}
}

func TestFasterMachineLowersSimTime(t *testing.T) {
	g := testGraph(t, 51, 2000, 16000)
	small, _ := cluster.ByName("c4.xlarge")
	big, _ := cluster.ByName("c4.8xlarge")
	clS, _ := cluster.New(small)
	clB, _ := cluster.New(big)
	pl := engine.SingleMachine(g)
	for _, app := range All() {
		resS, err := app.Run(pl, clS)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := app.Run(pl, clB)
		if err != nil {
			t.Fatal(err)
		}
		if resB.SimSeconds >= resS.SimSeconds {
			t.Errorf("%s: 8xlarge (%.4fs) not faster than xlarge (%.4fs)",
				app.Name(), resB.SimSeconds, resS.SimSeconds)
		}
	}
}

func TestAppScalingIsApplicationSpecific(t *testing.T) {
	// The heart of Fig 2: speedup across the c4 ladder must differ by
	// application — in particular memory-bound PageRank must scale worse
	// than compute-bound Triangle Count.
	g := testGraph(t, 52, 3000, 36000)
	pl := engine.SingleMachine(g)
	speedup := func(app App) float64 {
		small, _ := cluster.ByName("c4.xlarge")
		big, _ := cluster.ByName("c4.8xlarge")
		clS, _ := cluster.New(small)
		clB, _ := cluster.New(big)
		rs, err := app.Run(pl, clS)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := app.Run(pl, clB)
		if err != nil {
			t.Fatal(err)
		}
		return rs.SimSeconds / rb.SimSeconds
	}
	pr := speedup(NewPageRank())
	tc := speedup(NewTriangleCount())
	if tc <= pr {
		t.Errorf("triangle count speedup %.2f should exceed pagerank %.2f", tc, pr)
	}
}

var _ = rng.Hash64 // keep the import for future table-driven seeds

// TestParallelVariantsMatch pins the app-level route through engine options
// for every application: apps.Run with a trace recorder must equal the
// two-argument App.Run exactly — accounting and output alike — and the
// recorded stream must carry the whole run: steps numbered from 0, one per
// superstep or async round, its clock the result's makespan.
func TestParallelVariantsMatch(t *testing.T) {
	g := testGraph(t, 55, 800, 8000)
	cl := multiCluster(t, 4)
	pl := moduloPlacement(t, g, 4)

	for _, app := range WithExtensions() {
		t.Run(app.Name(), func(t *testing.T) {
			plain, err := app.Run(pl, cl)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder()
			traced, err := Run(app, pl, cl, engine.Options{Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			sameAccounting(t, app.Name(), plain, traced)
			if !reflect.DeepEqual(plain.Output, traced.Output) {
				t.Errorf("%s: output differs with a trace recorder attached", app.Name())
			}
			steps := 0
			for _, e := range rec.Events {
				if e.Kind == trace.KindStepBegin {
					if e.Step != steps {
						t.Fatalf("%s: step %d begins as step %d", app.Name(), steps, e.Step)
					}
					steps++
				}
			}
			sum := trace.Summarize(rec.Events)
			if steps == 0 || steps != sum.SyncSteps+sum.AsyncRounds || sum.SyncSteps != traced.Supersteps {
				t.Errorf("%s: %d steps begun, %d sync and %d async ended, %d supersteps charged",
					app.Name(), steps, sum.SyncSteps, sum.AsyncRounds, traced.Supersteps)
			}
			if sum.MakespanSeconds != traced.SimSeconds {
				t.Errorf("%s: traced makespan %v, result %v", app.Name(), sum.MakespanSeconds, traced.SimSeconds)
			}
		})
	}
}

// TestAsyncAppsAllocateNothingPerRound: Coloring and delta PageRank reuse
// their step counters every round, so a longer run allocates no more.
func TestAsyncAppsAllocateNothingPerRound(t *testing.T) {
	g := testGraph(t, 93, 400, 3200)
	pl := moduloPlacement(t, g, 2)
	cl := multiCluster(t, 2)
	allocs := func(t *testing.T, app App) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := app.Run(pl, cl); err != nil {
				t.Fatal(err)
			}
		})
	}
	res, err := NewColoring().Run(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Output.(ColoringResult).Rounds; n < 2 {
		t.Fatalf("coloring converged in %d round; the test needs more than one", n)
	}
	for _, tc := range []struct {
		name        string
		short, long App
	}{
		{"coloring", &Coloring{MaxRounds: 1, Seed: 1}, NewColoring()},
		// A tolerance this tight keeps every round busy up to MaxRounds.
		{"pagerank_async", &PageRankDelta{Damping: 0.85, Tolerance: 1e-12, MaxRounds: 2},
			&PageRankDelta{Damping: 0.85, Tolerance: 1e-12, MaxRounds: 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if short, long := allocs(t, tc.short), allocs(t, tc.long); long != short {
				t.Errorf("%s: %.0f allocations over more rounds, %.0f over fewer", tc.name, long, short)
			}
		})
	}
}
