package apps

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// --- SSSP ---

// refHops computes undirected hop distances from source by breadth-first
// search, +Inf where source does not reach.
func refHops(g *graph.Graph, source graph.VertexID) []float64 {
	und := sortedUndirected(g)
	dist := make([]float64, g.NumVertices)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[source] = 0
	for queue := []graph.VertexID{source}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range und.Neighbors(u) {
			if math.IsInf(dist[v], 1) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestSSSPMatchesBFS(t *testing.T) {
	for seed := uint64(60); seed < 63; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := testGraph(t, seed, 300, 1800)
			res, err := NewSSSP().Run(moduloPlacement(t, g, 3), multiCluster(t, 3))
			if err != nil {
				t.Fatal(err)
			}
			got, want := res.Output.(SSSPResult).Dist, refHops(g, 0)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: dist %v, want %v", v, got[v], want[v])
				}
			}
		})
	}
}

// TestSSSPAllocs pins a run's allocations at seven: dist, the one array
// behind active and nextActive, touched and the boxed output, plus the
// accountant's two and the result (the placement's local edges are built by
// the first run; the per-machine counters live on the stack). Separate flag
// arrays would be one more.
func TestSSSPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := testGraph(t, 60, 300, 1800)
	pl, cl := moduloPlacement(t, g, 3), multiCluster(t, 3)
	s := NewSSSP()
	got := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(pl, cl); err != nil {
			t.Fatal(err)
		}
	})
	if got > 7 {
		t.Errorf("SSSP allocates %.0f per run, the guard allows 7", got)
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
	// The detour 0-1-2-3 against the direct edge 0-3, stored last: 3 is one
	// hop away and 2 two, through 3 or through 1.
	g := &graph.Graph{NumVertices: 4, Edges: []graph.Edge{E(0, 1), E(1, 2), E(2, 3), E(0, 3)}}
	res, err := NewSSSP().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Output.(SSSPResult).Dist, []float64{0, 1, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("dist %v, want %v with the direct edge beating the detour", got, want)
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
	und := sortedUndirected(g)
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

// kcoreScanAll is the peeling loop KCore.Run replaced, kept as its executable
// spec: every round re-tests every master of every machine against a removed
// bitmap, in MasterVerts order. Which vertices fall together in a round
// depends on that order (a peel lowers its neighbours' degrees at once), and
// with it the round count and every counter the accountant is charged.
func kcoreScanAll(kc *KCore, pl *engine.Placement, cl *cluster.Cluster) *engine.Result {
	g := pl.G
	n := g.NumVertices
	und := sortedUndirected(g)
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(und.Degree(graph.VertexID(v)))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	remaining := n

	account := engine.NewAccountant(cl, kc.Coeffs())
	rounds := 0
	k := int32(1)
	for remaining > 0 {
		for {
			rounds++
			counters := make([]engine.StepCounters, pl.M)
			peeled := 0
			for p := 0; p < pl.M; p++ {
				sc := &counters[p]
				sc.Vertices = float64(len(pl.MasterVerts[p]))
				for _, v := range pl.MasterVerts[p] {
					if removed[v] {
						continue
					}
					sc.Gathers++ // the degree check
					if deg[v] >= k {
						continue
					}
					removed[v] = true
					core[v] = k - 1
					peeled++
					remaining--
					sc.Applies++
					sc.UpdatesOut += float64(mirrorsOf(pl, v, p))
					neighbors := und.Neighbors(v)
					sc.Gathers += float64(len(neighbors))
					if u := float64(len(neighbors)); u > sc.MaxUnit {
						sc.MaxUnit = u
					}
					for _, u := range neighbors {
						if !removed[u] {
							deg[u]--
						}
					}
				}
			}
			account.Superstep(counters)
			if peeled == 0 {
				break
			}
		}
		k++
	}
	maxCore := int32(0)
	for _, c := range core {
		maxCore = max(maxCore, c)
	}
	return account.Finish(kc.Name(), g.Name, KCoreResult{Core: core, MaxCore: int(maxCore), Rounds: rounds})
}

// TestKCoreMatchesScanAllSpec holds the survivor-list peel to the scan-all
// loop on everything a run reports: the whole engine.Result — per-round
// machine times and barriers, Supersteps, Gathers, SimSeconds, energy, busy
// time and traffic — and the decomposition itself. The graphs are random
// multigraphs with parallel edges, reciprocal pairs, self-loops and a tail of
// isolated vertices, hashed over 1, 3 and 4 machines.
func TestKCoreMatchesScanAllSpec(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		n := 40 + src.Intn(200)
		linked := n - src.Intn(n/4+1) // vertices at or above linked stay isolated
		g := &graph.Graph{Name: "kcore-spec", NumVertices: n}
		for i, m := 0, src.Intn(6*n); i < m; i++ {
			u := src.Intn(linked)
			v := u // one edge in ten is a self-loop
			if src.Intn(10) != 0 {
				// Squaring the draw crowds edges onto low ids: a dense core
				// with several peeling levels and many parallel edges.
				v = src.Intn(linked) * src.Intn(linked) / linked
			}
			g.Edges = append(g.Edges, E(u, v))
		}
		for _, machines := range []int{1, 3, 4} {
			owner := make([]engine.Machine, len(g.Edges))
			for i := range owner {
				owner[i] = engine.Machine(rng.Hash2(seed, uint64(i)) % uint64(machines))
			}
			pl, err := engine.NewPlacement(g, owner, machines)
			if err != nil {
				t.Fatal(err)
			}
			// Unequal machines: a counter charged to the wrong one moves
			// the barrier.
			mixed := []cluster.Machine{mustMachine(t, "c4.xlarge"), mustMachine(t, "c4.2xlarge"), mustMachine(t, "c4.8xlarge"), mustMachine(t, "c4.xlarge")}
			cl, err := cluster.New(mixed[:machines]...)
			if err != nil {
				t.Fatal(err)
			}
			kc := NewKCore()
			want := kcoreScanAll(kc, pl, cl)
			got, err := kc.Run(pl, cl)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d, %d machines", seed, machines)
			if math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) {
				t.Errorf("%s: SimSeconds %v, spec %v", label, got.SimSeconds, want.SimSeconds)
			}
			if !reflect.DeepEqual(got, want) {
				sameAccounting(t, label, want, got)
				t.Fatalf("%s: result differs from the scan-all spec\n got %+v\nwant %+v", label, got.Output, want.Output)
			}
		}
	}
}

// TestKCoreRunAllocs holds a decomposition to a fixed set-up cost: nothing
// per vertex, row or edge, and nothing per peeling round — the step counters
// live on the stack and the accountant keeps no per-step record. A path peels
// inward from its ends, so rounds grow with its length and either kind of
// allocation breaks the bound at the larger size.
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
		// 11 measured, at either length.
		if ceiling := 20.0; got > ceiling {
			t.Errorf("path of %d: KCore.Run allocates %.0f over %d rounds, want at most %.0f", n, got, rounds, ceiling)
		}
	}

	// Bytes, on the complete bipartite graph K(4, 16000): it peels in a
	// handful of rounds, so the per-run arrays are nearly everything. The
	// ceiling is one raw undirected CSR (offsets, and every edge in both its
	// rows before duplicates are dropped), four |V| int32 arrays (the
	// builder's stamp, deg, core and the survivor arena) and 64 KiB of slack;
	// a transpose or a second CSR, 8|V| + 8|E| bytes more, breaks it.
	const hubs, leaves = 4, 16000
	bip := &graph.Graph{NumVertices: hubs + leaves}
	for l := hubs; l < hubs+leaves; l++ {
		for h := 0; h < hubs; h++ {
			bip.Edges = append(bip.Edges, E(h, l))
		}
	}
	pl := moduloPlacement(t, bip, 2)
	rounds := 0
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		res, err := NewKCore().Run(pl, cl)
		if err != nil {
			t.Fatal(err)
		}
		rounds = res.Output.(KCoreResult).Rounds
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	n, m := uint64(bip.NumVertices), uint64(len(bip.Edges))
	csr := 8*(n+1) + 4*2*m
	ceiling := csr + 4*4*n + 64<<10
	t.Logf("K(%d, %d): %d bytes over %d rounds (raw undirected CSR %d)", hubs, leaves, got, rounds, csr)
	if got > ceiling {
		t.Errorf("K(%d, %d): KCore.Run allocates %d bytes, want at most one raw undirected CSR + four |V| int32 arrays + 64 KiB = %d", hubs, leaves, got, ceiling)
	}
}

// TestSSSPRunBytes bounds what one SSSP run allocates: per vertex the float64
// distance, the frontier byte and the reach word, the narrowest with a bit per
// machine, so 10 bytes on 2 machines and 17 on 64, plus 16 KiB for the
// per-machine state and the result. A second frontier bitmap, partial stamps
// beside the reach words or a reach word wider than the machine count needs
// break it. |V| is a multiple of the 8 KiB page, so no large array is rounded
// up.
func TestSSSPRunBytes(t *testing.T) {
	const n = 64 << 10
	star := &graph.Graph{NumVertices: n}
	for v := 1; v < n; v++ {
		star.Edges = append(star.Edges, E(0, v))
	}
	for _, c := range []struct {
		machines, perVertex int
	}{{2, 10}, {64, 17}} {
		cl := multiCluster(t, c.machines)
		pl := moduloPlacement(t, star, c.machines)
		rounds := 0
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			res, err := NewSSSP().Run(pl, cl)
			if err != nil {
				t.Fatal(err)
			}
			rounds = res.Output.(SSSPResult).Rounds
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		ceiling := uint64(c.perVertex*n + 16<<10)
		t.Logf("%d machines, star of %d vertices: %d bytes over %d rounds (%.2f per vertex)", c.machines, n, got, rounds, float64(got)/n)
		if got > ceiling {
			t.Errorf("%d machines: SSSP.Run allocates %d bytes over %d vertices, want at most %d·|V| + 16 KiB = %d", c.machines, got, n, c.perVertex, ceiling)
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
