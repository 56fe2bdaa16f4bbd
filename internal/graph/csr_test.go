package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// specCSR is the naive statement of what the two sorted builders return, and
// of the undirected sets once their rows are sorted: expand every edge into
// its row (both rows for the undirected view), sort each row, drop duplicates
// from undirected rows, concatenate.
func specCSR(g *graph.Graph, view string) *graph.CSR {
	rows := make([][]graph.VertexID, g.NumVertices)
	for _, e := range g.Edges {
		if view != "in" {
			rows[e.Src] = append(rows[e.Src], e.Dst)
		}
		if view != "out" {
			rows[e.Dst] = append(rows[e.Dst], e.Src)
		}
	}
	c := &graph.CSR{Offsets: make([]int64, g.NumVertices+1)}
	for v, row := range rows {
		slices.Sort(row)
		if view == "undirected" {
			row = slices.Compact(row)
		}
		c.Targets = append(c.Targets, row...)
		c.Offsets[v+1] = int64(len(c.Targets))
	}
	return c
}

// multigraph draws m edges over the first n-n/8 vertices, so the tail stays
// isolated, with parallel edges, reciprocal pairs and the odd self-loop mixed
// in.
func multigraph(seed uint64, n, m int) *graph.Graph {
	src := rng.New(seed)
	g := &graph.Graph{Name: fmt.Sprintf("multi-%d", seed), NumVertices: n}
	for len(g.Edges) < m {
		e := graph.Edge{Src: graph.VertexID(src.Intn(n - n/8)), Dst: graph.VertexID(src.Intn(n - n/8))}
		g.Edges = append(g.Edges, e)
		switch src.Intn(8) {
		case 0:
			g.Edges = append(g.Edges, e, e)
		case 1:
			g.Edges = append(g.Edges, graph.Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	return g
}

// firstOccurrences is the naive statement of BuildUndirectedSets: expand
// every edge into both rows in edge order, then keep each neighbor's first
// occurrence in its row.
func firstOccurrences(g *graph.Graph) *graph.CSR {
	rows := make([][]graph.VertexID, g.NumVertices)
	for _, e := range g.Edges {
		if !slices.Contains(rows[e.Src], e.Dst) {
			rows[e.Src] = append(rows[e.Src], e.Dst)
		}
		if !slices.Contains(rows[e.Dst], e.Src) {
			rows[e.Dst] = append(rows[e.Dst], e.Src)
		}
	}
	c := &graph.CSR{Offsets: make([]int64, g.NumVertices+1)}
	for v, row := range rows {
		c.Targets = append(c.Targets, row...)
		c.Offsets[v+1] = int64(len(c.Targets))
	}
	return c
}

// sortedRows returns a copy of c with every row sorted.
func sortedRows(c *graph.CSR) *graph.CSR {
	s := &graph.CSR{Offsets: c.Offsets, Targets: slices.Clone(c.Targets)}
	for v := 0; v+1 < len(s.Offsets); v++ {
		slices.Sort(s.Targets[s.Offsets[v]:s.Offsets[v+1]])
	}
	return s
}

// TestBuildCSRMatchesSortSpec pins the counting-pass builders to the naive
// spec, offsets and targets alike. The unsorted undirected builder must hold
// the spec's neighbor sets, row by row, in first-occurrence edge order.
func TestBuildCSRMatchesSortSpec(t *testing.T) {
	graphs := []*graph.Graph{
		{Name: "empty"},
		{Name: "one", NumVertices: 1},
		{Name: "loop", NumVertices: 1, Edges: []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 0}}},
		{Name: "isolated", NumVertices: 9},
		{Name: "reciprocal", NumVertices: 3, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 0, Dst: 1}}},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		graphs = append(graphs, multigraph(seed, 8+int(seed)*13, int(seed*seed)*9))
	}
	for _, spec := range gen.RealGraphs() {
		g, err := gen.Generate(spec.Scale(2048), 5)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		for view, got := range map[string]*graph.CSR{"out": g.BuildOutCSR(), "in": g.BuildInCSR()} {
			want := specCSR(g, view)
			if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) {
				t.Errorf("%s %s (|V|=%d |E|=%d): CSR differs from the sort spec", g.Name, view, g.NumVertices, len(g.Edges))
			}
		}
		sets, want := g.BuildUndirectedSets(), specCSR(g, "undirected")
		if got := sortedRows(sets); !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) {
			t.Errorf("%s sets (|V|=%d |E|=%d): sorted rows differ from the sort spec", g.Name, g.NumVertices, len(g.Edges))
		}
		if order := firstOccurrences(g); !slices.Equal(sets.Offsets, order.Offsets) || !slices.Equal(sets.Targets, order.Targets) {
			t.Errorf("%s sets (|V|=%d |E|=%d): rows are not first occurrences in edge order", g.Name, g.NumVertices, len(g.Edges))
		}
	}
}

// TestBuildUndirectedCSRAllocs holds BuildUndirectedSets to a handful of
// allocations that do not grow with the graph: a per-row or per-vertex
// allocation shows as a different count at ten times the vertices.
func TestBuildUndirectedCSRAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		g := multigraph(3, n, 8*n)
		return testing.AllocsPerRun(10, func() { g.BuildUndirectedSets() })
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("BuildUndirectedSets: %.0f allocations at |V|=500, %.0f at |V|=5000", small, large)
	if small != large || small > 6 {
		t.Errorf("BuildUndirectedSets allocates %.0f times at |V|=500 and %.0f at |V|=5000, want the same count, at most 6", small, large)
	}
}

// FuzzBuildUndirectedSets holds BuildUndirectedSets to firstOccurrences,
// offsets and targets alike, on random multigraphs: each byte pair of data is
// an edge over 1 + n%64 vertices, so the input decides how many duplicates,
// reciprocal pairs, self-loops and isolated vertices there are.
func FuzzBuildUndirectedSets(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(0))                   // a repeated self-loop
	f.Add([]byte{0, 1, 1, 0, 1, 2, 0, 1}, uint8(2))       // duplicates and a reciprocal pair
	f.Add([]byte{3, 4, 4, 3, 3, 4, 7, 7, 1, 3}, uint8(9)) // isolated vertices
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		nv := 1 + int(n)%64
		g := &graph.Graph{Name: "fuzz", NumVertices: nv}
		for i := 0; i+1 < len(data); i += 2 {
			g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(int(data[i]) % nv), Dst: graph.VertexID(int(data[i+1]) % nv)})
		}
		got, want := g.BuildUndirectedSets(), firstOccurrences(g)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) {
			t.Fatalf("|V|=%d edges %v: sets %v / %v, want first occurrences %v / %v", nv, g.Edges, got.Offsets, got.Targets, want.Offsets, want.Targets)
		}
	})
}

// BenchmarkBuildUndirectedSets builds the undirected sets KCore, Coloring and
// Triangle Count read, on social_network scaled to the end-to-end benchmark's
// 40 k-edge warm graphs: community blocks make a large share of its
// symmetric records repeats (reported as dup_pct), which the in-place
// compaction drops.
func BenchmarkBuildUndirectedSets(b *testing.B) {
	g, err := gen.Generate(gen.RealGraphs()[2].Scale(1700), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sets *graph.CSR
	for i := 0; i < b.N; i++ {
		sets = g.BuildUndirectedSets()
	}
	b.ReportMetric(100*(1-float64(len(sets.Targets))/float64(2*len(g.Edges))), "dup_pct")
}
