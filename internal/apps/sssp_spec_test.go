package apps

import (
	"fmt"
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

// ssspSpec is SSSP as an executable spec: within a round, machines relax in
// order 0..M−1, each walking its local edges in index order and relaxing out
// of every active endpoint. A relaxation counts a gather; one that lowers the
// target's distance counts an apply and the target's mirror updates on the
// relaxing machine; the first relaxation of a target on a machine counts a
// partial unless that machine holds the target's master. The production pass
// must charge exactly this.
func ssspSpec(s *SSSP, pl *engine.Placement, cl *cluster.Cluster, tc trace.Collector) (*engine.Result, error) {
	g := pl.G
	n := g.NumVertices
	if err := validateSource(s.Name(), n, s.Source); err != nil {
		return nil, err
	}
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[s.Source] = 0
	active, nextActive := make([]bool, n), make([]bool, n)
	active[s.Source] = true
	frontier, nextFrontier := 1, 0
	// touched[v] is one more than the last machine that relaxed into v.
	touched := make([]int, n)

	account := engine.NewAccountant(cl, s.Coeffs())
	account.SetCollector(tc)
	counters := make([]engine.StepCounters, pl.M)
	anyChange := false
	relax := func(sc *engine.StepCounters, p int, from, to graph.VertexID) {
		sc.Gathers++
		if nd := dist[from] + 1; nd < dist[to] {
			dist[to] = nd
			if !nextActive[to] {
				nextActive[to] = true
				nextFrontier++
			}
			anyChange = true
			sc.Applies++
			sc.UpdatesOut += float64(mirrorsOf(pl, to, p))
		}
		if touched[to] != p+1 {
			touched[to] = p + 1
			if pl.Master[to] != engine.Machine(p) {
				sc.PartialsOut++
			}
		}
	}
	local := pl.LocalEdges()
	rounds := 0
	for ; rounds < s.MaxIters; rounds++ {
		account.StepBegin(rounds, frontier, "sync")
		clear(counters)
		clear(touched)
		anyChange = false
		for p := 0; p < pl.M; p++ {
			sc := &counters[p]
			sc.Vertices = float64(len(pl.MasterVerts[p]))
			for _, ei := range local[p] {
				e := g.Edges[ei]
				if active[e.Src] {
					relax(sc, p, e.Src, e.Dst)
				}
				if active[e.Dst] {
					relax(sc, p, e.Dst, e.Src)
				}
			}
		}
		account.Superstep(counters)
		if !anyChange {
			rounds++
			break
		}
		active, nextActive = nextActive, active
		clear(nextActive)
		frontier, nextFrontier = nextFrontier, 0
	}

	reached := 0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
		}
	}
	out := SSSPResult{Dist: dist, Reached: reached, Rounds: rounds}
	return account.Finish(s.Name(), g.Name, out), nil
}

// ssspWidths are the machine counts the spec tests cover: every count up to
// 8, which the byte-wide reach word serves, and each wider word's edges.
var ssspWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 33, 64}

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

// tracedSSSP runs s on pl with a recorder attached.
func tracedSSSP(tb testing.TB, s *SSSP, pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, []trace.Event) {
	tb.Helper()
	rec := trace.NewRecorder()
	res, err := Run(s, pl, cl, engine.Options{Trace: rec})
	if err != nil {
		tb.Fatal(err)
	}
	return res, rec.Events
}

// tracedSpec runs ssspSpec for s on a placement of its own with a recorder
// attached.
func tracedSpec(tb testing.TB, s *SSSP, g *graph.Graph, owner []engine.Machine, cl *cluster.Cluster) (*engine.Result, []trace.Event) {
	tb.Helper()
	pl, err := engine.NewPlacement(g, owner, cl.Size())
	if err != nil {
		tb.Fatal(err)
	}
	rec := trace.NewRecorder()
	res, err := ssspSpec(s, pl, cl, rec)
	if err != nil {
		tb.Fatal(err)
	}
	return res, rec.Events
}

// sameSSSP fails unless got equals want: the Result with floats compared bit
// for bit, the SSSPResult and the event streams.
func sameSSSP(t *testing.T, label string, want, got *engine.Result, wantEvents, gotEvents []trace.Event) {
	t.Helper()
	samePriced(t, label, want, got)
	if got.App != want.App || got.Graph != want.Graph || got.Checkpoints != want.Checkpoints || got.Recoveries != want.Recoveries {
		t.Errorf("%s: labels or fault counts differ: %+v vs %+v", label, got, want)
	}
	a, b := want.Output.(SSSPResult), got.Output.(SSSPResult)
	if a.Reached != b.Reached || a.Rounds != b.Rounds || len(a.Dist) != len(b.Dist) {
		t.Fatalf("%s: reached %d in %d rounds, spec %d in %d", label, b.Reached, b.Rounds, a.Reached, a.Rounds)
	}
	for v := range a.Dist {
		if math.Float64bits(a.Dist[v]) != math.Float64bits(b.Dist[v]) {
			t.Fatalf("%s: vertex %d dist %v, spec %v", label, v, b.Dist[v], a.Dist[v])
		}
	}
	sameEvents(t, label, wantEvents, gotEvents)
}

// checkSSSPSpec runs s over g placed by owner on m machines, through the
// spec and through production twice: on a fresh placement and on one a BFS
// has served, as a cached placement may have. All three must agree.
func checkSSSPSpec(t *testing.T, label string, s *SSSP, g *graph.Graph, owner []engine.Machine, m int) {
	t.Helper()
	cl := cycledCluster(t, m)
	want, wantEvents := tracedSpec(t, s, g, owner, cl)
	fresh, err := engine.NewPlacement(g, owner, m)
	if err != nil {
		t.Fatal(err)
	}
	got, gotEvents := tracedSSSP(t, s, fresh, cl)
	sameSSSP(t, label+"/fresh", want, got, wantEvents, gotEvents)
	if _, err := NewBFS().Run(fresh, cl); err != nil {
		t.Fatal(err)
	}
	got, gotEvents = tracedSSSP(t, s, fresh, cl)
	sameSSSP(t, label+"/after bfs", want, got, wantEvents, gotEvents)
}

// hashedOwners places edge i on machine Hash2(seed, i) mod m.
func hashedOwners(edges, m int, seed uint64) []engine.Machine {
	owner := make([]engine.Machine, edges)
	for i := range owner {
		owner[i] = engine.Machine(rng.Hash2(seed, uint64(i)) % uint64(m))
	}
	return owner
}

// TestSSSPMatchesSpec: SSSP charges exactly what ssspSpec does, on
// multigraphs with self-loops, duplicate and reciprocal edges, an isolated
// source, disconnected parts and a MaxIters cut-off, at every machine count
// in ssspWidths.
func TestSSSPMatchesSpec(t *testing.T) {
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
		t.Run(c.name, func(t *testing.T) {
			for _, m := range ssspWidths {
				s := &SSSP{Source: c.source, MaxIters: c.maxIters}
				modulo := make([]engine.Machine, len(c.g.Edges))
				for i := range modulo {
					modulo[i] = engine.Machine(i % m)
				}
				label := fmt.Sprintf("%d machines", m)
				checkSSSPSpec(t, label+"/modulo", s, c.g, modulo, m)
				checkSSSPSpec(t, label+"/hashed", s, c.g, hashedOwners(len(c.g.Edges), m, uint64(m)), m)
			}
		})
	}
}

// FuzzSSSP decodes bytes into a multigraph of 1 to 40 vertices — self-loops,
// duplicate and reciprocal edges allowed — with every edge's owner among
// machines of a count from ssspWidths, a source and a MaxIters cut-off, and
// checks SSSP against ssspSpec as TestSSSPMatchesSpec does. Every byte string
// decodes to a legal input.
func FuzzSSSP(f *testing.F) {
	f.Add([]byte{10, 3, 0, 0, 0, 1, 0, 1, 2, 1, 2, 1, 2, 3, 3, 3, 3, 2, 6, 7, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{40, 7, 5, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{12, 4, 11, 2, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3})
	f.Add([]byte{20, 13, 0, 0, 0, 1, 63, 1, 2, 62, 2, 3, 40, 3, 0, 9, 0, 0, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("too short to decode a graph")
		}
		n := int(data[0])%40 + 1
		m := ssspWidths[int(data[1])%len(ssspWidths)]
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
		checkSSSPSpec(t, "fuzz", s, g, owner, m)
	})
}

// TestSSSPBesideBFSCompile runs SSSP on one cached placement while a BFS
// compiles that placement's GatherBoth grouping, as the service's two workers
// may: every SSSP result and event stream must equal the spec's on a
// placement of its own. make check runs it under -race at 1, 2 and 4 procs.
func TestSSSPBesideBFSCompile(t *testing.T) {
	g, err := gen.Generate(gen.Spec{Name: "race", Vertices: 2000, Edges: 12000, Kind: gen.KindPowerLaw}, 73)
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	cl := cycledCluster(t, m)
	owner := hashedOwners(len(g.Edges), m, 73)
	s := NewSSSP()
	want, wantEvents := tracedSpec(t, s, g, owner, cl)

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
				results[i], errs[i] = Run(s, shared, cl, engine.Options{Trace: rec})
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
			sameSSSP(t, fmt.Sprintf("round %d run %d", round, i), want, results[i], wantEvents, events[i])
		}
	}
}

// BenchmarkSSSP times one SSSP run from the highest-degree vertex of the
// wiki shape at 1/120 scale (about 41 k edges, a warm_frontier graph) over
// four heterogeneous machines, on a fresh placement.
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
	pl, cl := mixedPlacement(b, g, func(i int) int { return int(rng.Hash2(11, uint64(i)) % 4) }, 4)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Run(pl, cl); err != nil {
			b.Fatal(err)
		}
	}
}
