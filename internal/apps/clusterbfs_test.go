package apps

import (
	"errors"
	"math/bits"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// This file is the ClusterBFS differential battery of ISSUE 9: the 64-packed
// traversal must be bit-identical, lane for lane, to 64 independent
// single-source BFS runs — on seeded random, grid and star topologies, across
// both legs, clean and under chaos. Accounting is held to the same
// standard as every other app: bitwise identical across the two legs
// (one packed pass cannot charge like 64 scalar passes — that gap is the
// batch amortization the ClusterBFSStudy experiment measures — so the
// accounting invariant is cross-engine and chaos-vs-clean, not
// packed-vs-scalar). make check and CI run the
// TestClusterBFS* battery under -race -cpu 1,2,4.

// spreadSources returns k distinct roots spread evenly across [0, n).
func spreadSources(n, k int) []graph.VertexID {
	if k > n {
		k = n
	}
	srcs := make([]graph.VertexID, k)
	for j := range srcs {
		srcs[j] = graph.VertexID(j * n / k)
	}
	return srcs
}

// gridGraph builds a rows×cols lattice: the frontier grows as a diamond wave,
// pinning many supersteps with mid-density frontiers (the hybrid switcher's
// crossover region).
func gridGraph(rows, cols int) *graph.Graph {
	g := &graph.Graph{Name: "grid", NumVertices: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.Edges = append(g.Edges, E(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				g.Edges = append(g.Edges, E(id(r, c), id(r+1, c)))
			}
		}
	}
	return g
}

// starGraph builds a hub with the given number of leaves: every lane floods
// the whole graph in two supersteps through one max-degree vertex.
func starGraph(leaves int) *graph.Graph {
	g := &graph.Graph{Name: "star", NumVertices: leaves + 1}
	for l := 1; l <= leaves; l++ {
		g.Edges = append(g.Edges, E(0, l))
	}
	return g
}

// scalarBFSDistances is the in-test oracle: a plain queue BFS over the
// undirected adjacency, sharing no code with the engines or the apps.
func scalarBFSDistances(g *graph.Graph, src graph.VertexID) []int32 {
	adj := make([][]graph.VertexID, g.NumVertices)
	for _, e := range g.Edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	dist := make([]int32, g.NumVertices)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// checkLanesMatchScalarBFS compares every lane of the packed states against
// an independent single-source NewBFS run (reference engine) and against the
// in-test queue oracle: distances bit-identical, reach bits consistent.
func checkLanesMatchScalarBFS(t *testing.T, name string, g *graph.Graph, pl *engine.Placement, srcs []graph.VertexID, states []ClusterState) {
	t.Helper()
	cl := heteroCluster(t)
	for j, s := range srcs {
		b := &BFS{Source: s, MaxIters: 1000}
		_, scalar, err := engine.RunReference[int32, int32](b, pl, cl, engine.Options{})
		if err != nil {
			t.Fatalf("%s: scalar bfs from %d: %v", name, s, err)
		}
		oracle := scalarBFSDistances(g, s)
		for v := range states {
			if got := states[v].Dist[j]; got != scalar[v] {
				t.Fatalf("%s: lane %d (source %d) vertex %d: packed distance %d, scalar BFS %d",
					name, j, s, v, got, scalar[v])
			}
			if scalar[v] != oracle[v] {
				t.Fatalf("%s: source %d vertex %d: engine BFS %d disagrees with queue oracle %d",
					name, s, v, scalar[v], oracle[v])
			}
			reached := states[v].Seen&(1<<uint(j)) != 0
			if reached != (scalar[v] >= 0) {
				t.Fatalf("%s: lane %d vertex %d: reach bit %v but scalar distance %d",
					name, j, v, reached, scalar[v])
			}
		}
	}
}

// TestClusterBFSDifferential is the headline battery: on each topology the
// packed run must agree bitwise across the reference engine and Run (values
// and accounting), and every one of its 64 lanes must reproduce an
// independent single-source BFS exactly.
func TestClusterBFSDifferential(t *testing.T) {
	cl := heteroCluster(t)

	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", testGraph(t, 7, 800, 3200)},
		{"grid", gridGraph(16, 16)},
		{"star", starGraph(80)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srcs := spreadSources(tc.g.NumVertices, MaxBatchSources)
			prog := &ClusterBFS{Sources: srcs, MaxIters: 1000}
			pl := moduloPlacement(t, tc.g, 4)

			checkEquivalence[ClusterState, uint64](t, "clusterbfs/"+tc.name, prog, pl, cl, exact[ClusterState])

			_, states, err := engine.Run[ClusterState, uint64](prog, pl, cl, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkLanesMatchScalarBFS(t, tc.name, tc.g, pl, srcs, states)
		})
	}
}

// TestClusterBFSChaosDifferential puts the packed traversal under the chaos
// schedule: the recovered run must land on bitwise-identical states (and so,
// transitively through TestClusterBFSDifferential, on the 64 scalar BFS
// answers) with bitwise-equal accounting across both legs.
func TestClusterBFSChaosDifferential(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	cfg := &engine.FaultConfig{
		Injector:        chaosSchedule(),
		CheckpointEvery: 2,
		Policy:          engine.RecoverCheckpoint,
	}
	prog := &ClusterBFS{Sources: spreadSources(g.NumVertices, MaxBatchSources), MaxIters: 1000}
	res, _ := checkChaos[ClusterState, uint64](t, "clusterbfs", prog, pl, cl, cfg, exact[ClusterState])
	if res.Recoveries < 1 {
		t.Fatal("scheduled crash never fired")
	}
	if res.Checkpoints < 1 {
		t.Fatal("no checkpoint written")
	}
}

// TestClusterBFSSourceValidation is the satellite guard: every BFS-family
// app rejects malformed source sets with the typed sentinels before the
// engine starts.
func TestClusterBFSSourceValidation(t *testing.T) {
	g := testGraph(t, 3, 200, 800)
	cl := multiCluster(t, 2)
	pl := moduloPlacement(t, g, 2)

	seq := func(k int) []graph.VertexID {
		s := make([]graph.VertexID, k)
		for i := range s {
			s[i] = graph.VertexID(i)
		}
		return s
	}

	cases := []struct {
		name string
		app  App
		want error
	}{
		{"bfs/out-of-range", &BFS{Source: 200, MaxIters: 10}, ErrSourceOutOfRange},
		{"sssp/out-of-range", &SSSP{Source: 1000, MaxIters: 10}, ErrSourceOutOfRange},
		{"clusterbfs/empty", &ClusterBFS{Sources: nil, MaxIters: 10}, ErrNoSources},
		{"clusterbfs/out-of-range", &ClusterBFS{Sources: []graph.VertexID{0, 200}, MaxIters: 10}, ErrSourceOutOfRange},
		{"clusterbfs/duplicate", &ClusterBFS{Sources: []graph.VertexID{3, 4, 3}, MaxIters: 10}, ErrDuplicateSource},
		{"clusterbfs/too-many", &ClusterBFS{Sources: seq(MaxBatchSources + 1), MaxIters: 10}, ErrTooManySources},
		{"kseed/duplicate", &KSeedReach{Seeds: []graph.VertexID{1, 2, 1}, MaxIters: 10}, ErrDuplicateSource},
		{"kseed/out-of-range", &KSeedReach{Seeds: []graph.VertexID{500}, MaxIters: 10}, ErrSourceOutOfRange},
		{"landmark/zero-landmarks", &LandmarkOracle{K: 0, MaxIters: 10}, ErrNoSources},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.app.Run(pl, cl)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
		})
	}

	// Valid boundary sets still run: the last vertex as a root, a full
	// 64-lane batch, a single lane.
	for _, app := range []App{
		&BFS{Source: 199, MaxIters: 10},
		&ClusterBFS{Sources: seq(MaxBatchSources), MaxIters: 10},
		&ClusterBFS{Sources: []graph.VertexID{199}, MaxIters: 10},
	} {
		if _, err := app.Run(pl, cl); err != nil {
			t.Fatalf("valid source set rejected: %v", err)
		}
	}
}

// TestClusterBFSLandmarkOracle pins the distance oracle against scalar
// ground truth: queries reproduce min-over-landmarks routing exactly, never
// undercut the true distance, and are exact when an endpoint is a landmark.
func TestClusterBFSLandmarkOracle(t *testing.T) {
	g := testGraph(t, 11, 300, 1200)
	cl := multiCluster(t, 2)
	pl := moduloPlacement(t, g, 2)

	o := &LandmarkOracle{K: 8, MaxIters: 100}
	res, err := o.Run(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "landmark_oracle" {
		t.Fatalf("accounted as %q", res.App)
	}
	oracle := res.Output.(*DistanceOracle)

	landmarks := o.Landmarks(g)
	if len(landmarks) != 8 {
		t.Fatalf("picked %d landmarks, want 8", len(landmarks))
	}
	landmarkDist := make([][]int32, len(landmarks))
	for j, l := range landmarks {
		landmarkDist[j] = scalarBFSDistances(g, l)
	}

	// Sampled pairs: the oracle must equal the routing formula and bound the
	// true distance from above.
	for u := 0; u < g.NumVertices; u += 17 {
		truth := scalarBFSDistances(g, graph.VertexID(u))
		for v := 0; v < g.NumVertices; v += 23 {
			want := int32(-1)
			for j := range landmarks {
				du, dv := landmarkDist[j][u], landmarkDist[j][v]
				if du < 0 || dv < 0 {
					continue
				}
				if d := du + dv; want < 0 || d < want {
					want = d
				}
			}
			got, ok := oracle.Query(graph.VertexID(u), graph.VertexID(v))
			if u == v {
				if !ok || got != 0 {
					t.Fatalf("Query(%d,%d) = %d,%v, want 0", u, v, got, ok)
				}
				continue
			}
			if ok != (want >= 0) || (ok && got != want) {
				t.Fatalf("Query(%d,%d) = %d,%v; routing formula gives %d", u, v, got, ok, want)
			}
			if ok && truth[v] >= 0 && got < truth[v] {
				t.Fatalf("Query(%d,%d) = %d undercuts true distance %d", u, v, got, truth[v])
			}
		}
	}

	// A landmark endpoint routes through itself, so the bound is exact.
	l0 := landmarks[0]
	for v := 0; v < g.NumVertices; v += 13 {
		want := landmarkDist[0][v]
		got, ok := oracle.Query(l0, graph.VertexID(v))
		if ok != (want >= 0) || (ok && got != want) {
			t.Fatalf("Query(landmark %d, %d) = %d,%v, want exact %d", l0, v, got, ok, want)
		}
	}
}

// ReachMask returns vertex v's packed reach word.
func (l *ClusterLabels) ReachMask(v graph.VertexID) uint64 { return l.States[v].Seen }

// Query returns an upper bound on the hop distance between u and v:
// min over landmarks l of d(u,l)+d(l,v), considering only landmarks that
// reach both endpoints. ok is false when no landmark connects them (distinct
// components, or too few landmarks). The bound is exact whenever some
// shortest u–v path passes through a landmark — in particular whenever u or
// v is itself a landmark.
func (o *DistanceOracle) Query(u, v graph.VertexID) (dist int32, ok bool) {
	if u == v {
		return 0, true
	}
	both := o.Labels.ReachMask(u) & o.Labels.ReachMask(v)
	if both == 0 {
		return -1, false
	}
	best := int32(-1)
	for m := both; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if d := o.Labels.Dist(u, j) + o.Labels.Dist(v, j); best < 0 || d < best {
			best = d
		}
	}
	return best, true
}

// TestClusterBFSKSeedReach pins the reachability summary on a graph with two
// components and an isolated vertex, then cross-checks the counts on a
// random graph against the scalar oracle.
func TestClusterBFSKSeedReach(t *testing.T) {
	// Component A: path 0-1-2-3. Component B: path 4-5-6. Vertex 7 isolated.
	g := &graph.Graph{Name: "two-comp", NumVertices: 8, Edges: []graph.Edge{
		E(0, 1), E(1, 2), E(2, 3), E(4, 5), E(5, 6),
	}}
	cl := multiCluster(t, 2)
	pl := moduloPlacement(t, g, 2)

	r := &KSeedReach{Seeds: []graph.VertexID{0, 4}, MaxIters: 100}
	res, err := r.Run(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "kseed_reach" {
		t.Fatalf("accounted as %q", res.App)
	}
	sum := res.Output.(*ReachSummary)
	if len(sum.PerSeed) != 2 || sum.PerSeed[0] != 4 || sum.PerSeed[1] != 3 {
		t.Fatalf("PerSeed = %v, want [4 3]", sum.PerSeed)
	}
	if sum.Union != 7 {
		t.Fatalf("Union = %d, want 7", sum.Union)
	}
	if mask := sum.Labels.ReachMask(7); mask != 0 {
		t.Fatalf("isolated vertex has reach mask %b", mask)
	}
	if mask := sum.Labels.ReachMask(2); mask != 1 {
		t.Fatalf("vertex 2 reach mask %b, want seed-0 only", mask)
	}

	// Random graph: counts must match brute-force scalar reach.
	rg := testGraph(t, 19, 250, 700)
	rpl := moduloPlacement(t, rg, 2)
	seeds := spreadSources(rg.NumVertices, 12)
	rr := &KSeedReach{Seeds: seeds, MaxIters: 100}
	rres, err := rr.Run(rpl, cl)
	if err != nil {
		t.Fatal(err)
	}
	rsum := rres.Output.(*ReachSummary)
	unionSeen := make([]bool, rg.NumVertices)
	for j, s := range seeds {
		dist := scalarBFSDistances(rg, s)
		count := 0
		for v, d := range dist {
			if d >= 0 {
				count++
				unionSeen[v] = true
			}
		}
		if rsum.PerSeed[j] != count {
			t.Fatalf("seed %d covers %d vertices, oracle says %d", j, rsum.PerSeed[j], count)
		}
	}
	union := 0
	for _, s := range unionSeen {
		if s {
			union++
		}
	}
	if rsum.Union != union {
		t.Fatalf("Union = %d, oracle says %d", rsum.Union, union)
	}
}
