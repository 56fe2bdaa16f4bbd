package apps

import (
	"math"
	"sync"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
)

// cycledCluster returns m machines cycling through four unequal types, so a
// counter charged to the wrong machine moves the barrier.
func cycledCluster(tb testing.TB, m int) *cluster.Cluster {
	tb.Helper()
	names := []string{"c4.xlarge", "c4.2xlarge", "c4.8xlarge", "m4.2xlarge"}
	machines := make([]cluster.Machine, m)
	for p := range machines {
		mc, ok := cluster.ByName(names[p%len(names)])
		if !ok {
			tb.Fatalf("unknown machine %q", names[p%len(names)])
		}
		machines[p] = mc
	}
	cl, err := cluster.New(machines...)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// groupedPlacement returns a placement of g by owner whose GatherBoth
// grouping a BFS run has compiled, as on a cached placement that has served
// one, so SSSP takes the key walk on it.
func groupedPlacement(tb testing.TB, g *graph.Graph, owner []engine.Machine, cl *cluster.Cluster) *engine.Placement {
	tb.Helper()
	pl, err := engine.NewPlacement(g, owner, cl.Size())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := NewBFS().Run(pl, cl); err != nil {
		tb.Fatal(err)
	}
	if _, ok := pl.CompiledBothGrouping(0); !ok {
		tb.Fatal("a BFS run left the GatherBoth grouping uncompiled")
	}
	return pl
}

// tracedSSSP runs s on pl with a recorder attached.
func tracedSSSP(tb testing.TB, s *SSSP, pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, []trace.Event) {
	tb.Helper()
	rec := trace.NewRecorder()
	res, err := s.runTraced(pl, cl, rec)
	if err != nil {
		tb.Fatal(err)
	}
	return res, rec.Events
}

// checkSSSPWalk runs s on a fresh placement of g by owner, where it scans the
// local edges, and on a placement with the same owner vector whose GatherBoth
// grouping is compiled, where it takes the key walk. The Result, with floats
// compared bit for bit, the SSSPResult and the event stream must agree. SSSP must not compile the grouping on the fresh
// placement.
func checkSSSPWalk(t *testing.T, label string, s *SSSP, g *graph.Graph, owner []engine.Machine, m int) {
	t.Helper()
	cl := cycledCluster(t, m)
	fresh, err := engine.NewPlacement(g, owner, m)
	if err != nil {
		t.Fatal(err)
	}
	want, wantEvents := tracedSSSP(t, s, fresh, cl)
	if _, ok := fresh.CompiledBothGrouping(0); ok {
		t.Fatalf("%s: SSSP compiled the GatherBoth grouping", label)
	}
	got, gotEvents := tracedSSSP(t, s, groupedPlacement(t, g, owner, cl), cl)

	samePriced(t, label, want, got)
	if got.App != want.App || got.Graph != want.Graph || got.Checkpoints != want.Checkpoints || got.Recoveries != want.Recoveries {
		t.Errorf("%s: labels or fault counts differ: %+v vs %+v", label, got, want)
	}
	a, b := want.Output.(SSSPResult), got.Output.(SSSPResult)
	if a.Reached != b.Reached || a.Rounds != b.Rounds || len(a.Dist) != len(b.Dist) {
		t.Fatalf("%s: reached %d in %d rounds, scan %d in %d", label, b.Reached, b.Rounds, a.Reached, a.Rounds)
	}
	for v := range a.Dist {
		if math.Float64bits(a.Dist[v]) != math.Float64bits(b.Dist[v]) {
			t.Fatalf("%s: vertex %d dist %v, scan %v", label, v, b.Dist[v], a.Dist[v])
		}
	}
	sameEvents(t, label, wantEvents, gotEvents)
}

// hashedOwners places edge i on machine Hash2(seed, i) mod m.
func hashedOwners(edges, m int, seed uint64) []engine.Machine {
	owner := make([]engine.Machine, edges)
	for i := range owner {
		owner[i] = engine.Machine(rng.Hash2(seed, uint64(i)) % uint64(m))
	}
	return owner
}

// TestSSSPUnitWalkMatchesScan: the key walk over a compiled GatherBoth
// grouping charges exactly what the scan of the local edges does, on
// multigraphs with self-loops, duplicate and reciprocal edges, an isolated
// source, disconnected parts and a MaxIters cut-off, on 1 to 8 machines.
func TestSSSPUnitWalkMatchesScan(t *testing.T) {
	// Two parts, 0..5 and 6..8, with vertex 9 isolated: 2-3 is duplicated,
	// 1-2 runs both ways, 0 and 4 carry self-loops.
	multi := &graph.Graph{Name: "multi", NumVertices: 10, Edges: []graph.Edge{
		E(0, 1), E(1, 2), E(2, 1), E(2, 3), E(2, 3), E(0, 0), E(3, 4), E(4, 4),
		E(4, 5), E(1, 5), E(6, 7), E(7, 8), E(8, 6), E(7, 7), E(3, 2), E(5, 0),
	}}
	path := &graph.Graph{Name: "path", NumVertices: 12}
	for v := 0; v+1 < path.NumVertices; v++ {
		path.Edges = append(path.Edges, E(v+1, v), E(v, v+1))
	}
	power := testGraph(t, 71, 400, 2400)

	cases := []struct {
		name     string
		g        *graph.Graph
		source   graph.VertexID
		maxIters int
	}{
		{"multigraph", multi, 0, 10000},
		{"other part", multi, 7, 10000},
		{"isolated source", multi, 9, 10000},
		{"cut off", path, 0, 4},
		{"path", path, 5, 10000},
		{"power law", power, 3, 10000},
		{"power law cut off", power, 3, 2},
	}
	for _, c := range cases {
		for m := 1; m <= 8; m++ {
			s := &SSSP{Source: c.source, MaxIters: c.maxIters}
			modulo := make([]engine.Machine, len(c.g.Edges))
			for i := range modulo {
				modulo[i] = engine.Machine(i % m)
			}
			checkSSSPWalk(t, c.name+"/modulo", s, c.g, modulo, m)
			checkSSSPWalk(t, c.name+"/hashed", s, c.g, hashedOwners(len(c.g.Edges), m, uint64(m)), m)
		}
	}
}

// FuzzSSSPUnitWalk decodes bytes into a multigraph of 1 to 40 vertices —
// self-loops, duplicate and reciprocal edges allowed — with every edge's
// owner among 1 to 8 machines, a source and a MaxIters cut-off, and checks
// the key walk against the scan as TestSSSPUnitWalkMatchesScan does. Every
// byte string decodes to a legal input.
func FuzzSSSPUnitWalk(f *testing.F) {
	f.Add([]byte{10, 3, 0, 0, 0, 1, 0, 1, 2, 1, 2, 1, 2, 3, 3, 3, 3, 2, 6, 7, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{40, 7, 5, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{12, 4, 11, 2, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("too short to decode a graph")
		}
		n := int(data[0])%40 + 1
		m := int(data[1])%8 + 1
		s := NewSSSP()
		s.Source = graph.VertexID(int(data[2]) % n)
		if cut := int(data[3]) % 16; cut > 0 {
			s.MaxIters = cut
		}
		// Edges: consecutive byte triples (u, v, owner), self-loops kept.
		g := &graph.Graph{Name: "fuzz-sssp", NumVertices: n}
		var owner []engine.Machine
		body := data[4:]
		for i := 0; i+2 < len(body); i += 3 {
			g.Edges = append(g.Edges, E(int(body[i])%n, int(body[i+1])%n))
			owner = append(owner, engine.Machine(int(body[i+2])%m))
		}
		checkSSSPWalk(t, "fuzz", s, g, owner, m)
	})
}

// TestSSSPWhileBFSCompilesGrouping runs SSSP on one cached placement while a
// BFS compiles its GatherBoth grouping, as the service's two workers may:
// each SSSP run takes the scan or the walk, whichever it finds, and every
// result and event stream equals the scan's on a placement of its own. make
// check runs it under -race at 1, 2 and 4 procs.
func TestSSSPWhileBFSCompilesGrouping(t *testing.T) {
	g, err := gen.Generate(gen.Spec{Name: "race", Vertices: 2000, Edges: 12000, Kind: gen.KindPowerLaw}, 73)
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	cl := cycledCluster(t, m)
	owner := hashedOwners(len(g.Edges), m, 73)
	s := NewSSSP()
	fresh, err := engine.NewPlacement(g, owner, m)
	if err != nil {
		t.Fatal(err)
	}
	want, wantEvents := tracedSSSP(t, s, fresh, cl)

	for round := range 4 {
		shared, err := engine.NewPlacement(g, owner, m)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 4
		results := make([]*engine.Result, runs)
		events := make([][]trace.Event, runs)
		errs := make([]error, runs+1)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(runs + 1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[runs] = NewBFS().Run(shared, cl)
		}()
		for i := range runs {
			go func() {
				defer wg.Done()
				<-start
				rec := trace.NewRecorder()
				results[i], errs[i] = s.runTraced(shared, cl, rec)
				events[i] = rec.Events
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d run %d: %v", round, i, err)
			}
		}
		for i := range results {
			label := "concurrent run"
			samePriced(t, label, want, results[i])
			a, b := want.Output.(SSSPResult), results[i].Output.(SSSPResult)
			for v := range a.Dist {
				if a.Dist[v] != b.Dist[v] {
					t.Fatalf("round %d run %d vertex %d: dist %v, scan %v", round, i, v, b.Dist[v], a.Dist[v])
				}
			}
			sameEvents(t, label, wantEvents, events[i])
		}
	}
}

// BenchmarkSSSP times one SSSP run from the highest-degree vertex of the
// wiki shape at 1/120 scale (about 41 k edges, a warm_frontier graph) over
// four heterogeneous machines, by both walks: scan on a placement holding
// only its local edge index, walk on one whose GatherBoth grouping a BFS has
// compiled.
func BenchmarkSSSP(b *testing.B) {
	var spec gen.Spec
	for _, s := range gen.RealGraphs() {
		if s.Name == "wiki" {
			spec = s.Scale(120)
		}
	}
	g, err := gen.Generate(spec, 11)
	if err != nil {
		b.Fatal(err)
	}
	deg := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	s := NewSSSP()
	for v, d := range deg {
		if d > deg[s.Source] {
			s.Source = graph.VertexID(v)
		}
	}
	owner := func(i int) int { return int(rng.Hash2(11, uint64(i)) % 4) }
	scan, cl := mixedPlacement(b, g, owner, 4)
	scan.LocalEdges()
	walk, _ := mixedPlacement(b, g, owner, 4)
	if _, err := NewBFS().Run(walk, cl); err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		pl   *engine.Placement
	}{{"scan", scan}, {"walk", walk}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Run(leg.pl, cl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
