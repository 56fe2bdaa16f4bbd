package apps

import (
	"container/heap"
	"math"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// --- SSSP ---

// refDijkstra computes undirected shortest paths with a binary heap.
func refDijkstra(g *graph.Graph, source graph.VertexID) []float64 {
	type adj struct {
		to graph.VertexID
		w  float64
	}
	adjacency := make([][]adj, g.NumVertices)
	for i, e := range g.Edges {
		w := float64(g.Weight(i))
		adjacency[e.Src] = append(adjacency[e.Src], adj{e.Dst, w})
		adjacency[e.Dst] = append(adjacency[e.Dst], adj{e.Src, w})
	}
	dist := make([]float64, g.NumVertices)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	pq := &distHeap{{int(source), 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue
		}
		for _, a := range adjacency[item.v] {
			if nd := item.d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(pq, distItem{int(a.to), nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func TestSSSPMatchesDijkstra(t *testing.T) {
	for seed := uint64(60); seed < 63; seed++ {
		g := testGraph(t, seed, 300, 1800)
		graph.AttachWeights(g, 1, 10, seed)
		res, err := NewSSSP().Run(moduloPlacement(t, g, 3), multiCluster(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Output.(SSSPResult).Dist
		want := refDijkstra(g, 0)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
				t.Fatalf("seed %d vertex %d: reachability differs", seed, v)
			}
			if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: dist %v, want %v", seed, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPUnweightedEqualsBFS(t *testing.T) {
	g := testGraph(t, 64, 400, 1600)
	ssspRes, err := NewSSSP().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	bfsRes, err := NewBFS().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	dist := ssspRes.Output.(SSSPResult).Dist
	hops := bfsRes.Output.([]int32)
	for v := range dist {
		switch {
		case hops[v] == -1:
			if !math.IsInf(dist[v], 1) {
				t.Fatalf("vertex %d: BFS unreachable but SSSP %v", v, dist[v])
			}
		case dist[v] != float64(hops[v]):
			t.Fatalf("vertex %d: sssp %v != bfs %d on unit weights", v, dist[v], hops[v])
		}
	}
}

func TestSSSPKnownPath(t *testing.T) {
	// 0 -2.0- 1 -3.0- 2, plus direct 0 -10.0- 2: shortest to 2 is 5.
	g := &graph.Graph{NumVertices: 3, Edges: []graph.Edge{E(0, 1), E(1, 2), E(0, 2)}}
	g.Weights = []float32{2, 3, 10}
	res, err := NewSSSP().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Output.(SSSPResult).Dist
	if dist[2] != 5 {
		t.Errorf("dist[2] = %v, want 5 via the two-hop path", dist[2])
	}
}

func TestSSSPBadSource(t *testing.T) {
	g := testGraph(t, 65, 50, 200)
	s := NewSSSP()
	s.Source = 1000
	if _, err := s.Run(engine.SingleMachine(g), singleCluster(t)); err == nil {
		t.Error("out-of-range source should error")
	}
}

func TestSSSPInvariantAcrossPlacements(t *testing.T) {
	g := testGraph(t, 66, 300, 1500)
	graph.AttachWeights(g, 1, 4, 66)
	res1, err := NewSSSP().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	res4, err := NewSSSP().Run(moduloPlacement(t, g, 4), multiCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	d1 := res1.Output.(SSSPResult).Dist
	d4 := res4.Output.(SSSPResult).Dist
	for v := range d1 {
		if d1[v] != d4[v] {
			t.Fatalf("vertex %d: %v vs %v across placements", v, d1[v], d4[v])
		}
	}
}

// --- KCore ---

// refCoreNumbers peels sequentially with a bucket queue.
func refCoreNumbers(g *graph.Graph) []int32 {
	und := g.BuildUndirectedCSR()
	n := g.NumVertices
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(und.Degree(graph.VertexID(v)))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	for remaining := n; remaining > 0; {
		// Find the minimum remaining degree and peel one such vertex.
		minDeg, minV := int32(1<<30), -1
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < minDeg {
				minDeg, minV = deg[v], v
			}
		}
		removed[minV] = true
		core[minV] = minDeg
		remaining--
		for _, u := range und.Neighbors(graph.VertexID(minV)) {
			if !removed[u] && deg[u] > minDeg {
				deg[u]--
			}
		}
	}
	return core
}

func TestKCoreMatchesReference(t *testing.T) {
	for seed := uint64(70); seed < 73; seed++ {
		g := testGraph(t, seed, 150, 900)
		res, err := NewKCore().Run(moduloPlacement(t, g, 2), multiCluster(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Output.(KCoreResult).Core
		want := refCoreNumbers(g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed %d vertex %d: core %d, want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestKCoreKnownGraphs(t *testing.T) {
	// K5: every vertex has core number 4.
	k5 := &graph.Graph{NumVertices: 5}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5.Edges = append(k5.Edges, E(u, v))
		}
	}
	res, err := NewKCore().Run(engine.SingleMachine(k5), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.(KCoreResult)
	if out.MaxCore != 4 {
		t.Errorf("K5 max core = %d, want 4", out.MaxCore)
	}
	// A path: every vertex is in the 1-core only.
	path := &graph.Graph{NumVertices: 4, Edges: []graph.Edge{E(0, 1), E(1, 2), E(2, 3)}}
	res, err = NewKCore().Run(engine.SingleMachine(path), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	out = res.Output.(KCoreResult)
	if out.MaxCore != 1 {
		t.Errorf("path max core = %d, want 1", out.MaxCore)
	}
}

func TestKCoreMaxKCap(t *testing.T) {
	g := testGraph(t, 74, 500, 5000)
	kc := &KCore{MaxK: 2}
	res, err := kc.Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.(KCoreResult)
	if out.MaxCore > 2 {
		t.Errorf("capped decomposition reports core %d > cap", out.MaxCore)
	}
}

// TestKCoreRunAllocs holds a decomposition to a fixed set-up cost plus what
// the accountant retains per peeling round (its per-machine step timing, and
// the amortised growth of its trace): nothing per vertex, row or edge, and no
// second per-round slice such as the step counters. A path peels inward from
// its ends, so rounds grow with its length and either kind of allocation
// breaks the bound at the larger size.
func TestKCoreRunAllocs(t *testing.T) {
	cl := multiCluster(t, 2)
	for _, n := range []int{200, 2000} {
		path := &graph.Graph{NumVertices: n}
		for v := 1; v < n; v++ {
			path.Edges = append(path.Edges, E(v-1, v))
		}
		pl := moduloPlacement(t, path, 2)
		rounds := 0
		got := testing.AllocsPerRun(5, func() {
			res, err := NewKCore().Run(pl, cl)
			if err != nil {
				t.Fatal(err)
			}
			rounds = res.Output.(KCoreResult).Rounds
		})
		t.Logf("path of %d: %.0f allocations over %d rounds", n, got, rounds)
		if ceiling := float64(40 + 3*rounds/2); got > ceiling {
			t.Errorf("path of %d: KCore.Run allocates %.0f over %d rounds, want at most 40 + 1.5 per round = %.0f", n, got, rounds, ceiling)
		}
	}
}

func TestExtensionsRegistered(t *testing.T) {
	if len(WithExtensions()) != 11 {
		t.Fatalf("extensions registry has %d apps, want 11", len(WithExtensions()))
	}
	for _, name := range []string{"sssp", "kcore", "pagerank_async", "cluster_bfs", "landmark_oracle", "kseed_reach"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}
