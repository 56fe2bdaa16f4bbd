package apps

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// BenchmarkTriangleCount times one Triangle Count run — the undirected sets,
// the stamped count, the per-edge charge walk and the accounting — on a
// power-law graph of 5,000 vertices and 40,000 edges over four heterogeneous
// machines. make check runs it once so it keeps compiling; it is the
// host-time baseline a rewrite of the count is measured against.
func BenchmarkTriangleCount(b *testing.B) {
	g, err := gen.Generate(gen.Spec{
		Name: "tc-bench", Vertices: 5000, Edges: 40000, Kind: gen.KindPowerLaw,
	}, 11)
	if err != nil {
		b.Fatal(err)
	}
	pl, cl := mixedPlacement(b, g, func(i int) int { return i % 4 }, 4)
	tc := NewTriangleCount()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := tc.Run(pl, cl); err != nil {
			b.Fatal(err)
		}
	}
}

// mixedPlacement places g's edges by owner(i) on the first m machines of
// c4.xlarge, c4.2xlarge, c4.8xlarge, c4.xlarge: unequal machines, so a
// counter charged to the wrong one moves the barrier.
func mixedPlacement(tb testing.TB, g *graph.Graph, owner func(i int) int, m int) (*engine.Placement, *cluster.Cluster) {
	tb.Helper()
	var machines []cluster.Machine
	for _, name := range []string{"c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge"}[:m] {
		mc, ok := cluster.ByName(name)
		if !ok {
			tb.Fatalf("unknown machine %q", name)
		}
		machines = append(machines, mc)
	}
	cl, err := cluster.New(machines...)
	if err != nil {
		tb.Fatal(err)
	}
	owners := make([]engine.Machine, len(g.Edges))
	for i := range owners {
		owners[i] = engine.Machine(owner(i))
	}
	pl, err := engine.NewPlacement(g, owners, m)
	if err != nil {
		tb.Fatal(err)
	}
	return pl, cl
}

// triangleCountSpec is the loop TriangleCount.runTraced replaced, kept as its
// executable spec: on independently sorted undirected rows, each machine
// walks its local edges, skips an undirected pair another edge already
// reached, merges the two endpoints' rows for their common neighbours and is
// charged the merge length.
func triangleCountSpec(tc *TriangleCount, pl *engine.Placement, cl *cluster.Cluster) *engine.Result {
	g := pl.G
	und := sortedUndirected(g)
	seen := make(map[uint64]struct{}, len(g.Edges))
	perVertex := make([]int64, g.NumVertices)
	var total int64
	sentStamp := make([]int32, g.NumVertices)
	for i := range sentStamp {
		sentStamp[i] = -1
	}
	counters := make([]engine.StepCounters, pl.M)
	for p := 0; p < pl.M; p++ {
		sc := &counters[p]
		sc.Vertices = float64(len(pl.MasterVerts[p]))
		for _, ei := range pl.LocalEdges()[p] {
			e := g.Edges[ei]
			a, b := e.Src, e.Dst
			if a > b {
				a, b = b, a
			}
			key := uint64(a)<<32 | uint64(b)
			if _, dup := seen[key]; dup {
				sc.Applies++
				continue
			}
			seen[key] = struct{}{}
			na, nb := und.Neighbors(a), und.Neighbors(b)
			common := mergeIntersection(na, nb)
			probes := min(len(na), len(nb))
			sc.Gathers += float64(probes)
			if float64(probes) > sc.MaxUnit {
				sc.MaxUnit = float64(probes)
			}
			sc.Applies++
			if pl.Master[a] != engine.Machine(p) && sentStamp[a] != int32(p) {
				sentStamp[a] = int32(p)
				sc.PartialsOut++
			}
			if pl.Master[b] != engine.Machine(p) && sentStamp[b] != int32(p) {
				sentStamp[b] = int32(p)
				sc.PartialsOut++
			}
			total += int64(common)
			perVertex[a] += int64(common)
			perVertex[b] += int64(common)
		}
	}
	account := engine.NewAccountant(cl, tc.Coeffs())
	account.StepBegin(0, g.NumVertices, "sync")
	account.Superstep(counters)
	out := TriangleResult{Total: total / 3, PerVertex: perVertex}
	return account.Finish(tc.Name(), g.Name, out)
}

// mergeIntersection returns |a ∩ b| for two ascending rows by linear merge.
func mergeIntersection(a, b []graph.VertexID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// TestTriangleCountMatchesSpec holds TriangleCount to triangleCountSpec on
// the whole engine.Result — output, SimSeconds, energy, busy time, traffic
// and gathers — over 400 random multigraphs with duplicate edges, reversed
// edges and self-loops on 1 to 4 unequal machines, and over the four Table II
// graph shapes.
func TestTriangleCountMatchesSpec(t *testing.T) {
	tc := NewTriangleCount()
	check := func(label string, g *graph.Graph, owner func(i int) int, m int) {
		t.Helper()
		pl, cl := mixedPlacement(t, g, owner, m)
		got, err := tc.Run(pl, cl)
		if err != nil {
			t.Fatal(err)
		}
		if want := triangleCountSpec(tc, pl, cl); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result differs from the spec\n got %+v\nwant %+v", label, got, want)
		}
	}
	for seed := uint64(1); seed <= 400; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn(60)
		g := &graph.Graph{Name: "tc-spec", NumVertices: n}
		for i, edges := 0, src.Intn(8*n); i < edges; i++ {
			e := E(src.Intn(n), src.Intn(n))
			g.Edges = append(g.Edges, e)
			switch src.Intn(6) {
			case 0:
				g.Edges = append(g.Edges, e)
			case 1:
				g.Edges = append(g.Edges, graph.Edge{Src: e.Dst, Dst: e.Src})
			case 2:
				g.Edges = append(g.Edges, E(int(e.Src), int(e.Src)))
			}
		}
		for m := 1; m <= 4; m++ {
			check(fmt.Sprintf("seed %d, %d machines", seed, m), g, func(i int) int {
				return int(rng.Hash2(seed, uint64(i)) % uint64(m))
			}, m)
		}
	}
	for _, spec := range gen.RealGraphs() {
		g, err := gen.Generate(spec.Scale(1024), 7)
		if err != nil {
			t.Fatal(err)
		}
		check(g.Name, g, func(i int) int { return i % 4 }, 4)
	}
}

// TestCountTrianglesKnownGraphs pins countTriangles on small hand-counted
// graphs: per vertex, twice the triangles it is in. The all-equal-degree
// cases put every pair on the lower-id tie break; the self-loop case pins
// the out-of-contract count FuzzTriangleCount documents (the looped vertex
// is its own common neighbour).
func TestCountTrianglesKnownGraphs(t *testing.T) {
	for _, tt := range []struct {
		name      string
		n         int
		edges     []graph.Edge
		total     int64
		perVertex []int64
	}{
		{"no edges", 3, nil, 0, []int64{0, 0, 0}},
		{"path", 4, []graph.Edge{E(0, 1), E(1, 2), E(2, 3)}, 0, []int64{0, 0, 0, 0}},
		{"triangle", 3, []graph.Edge{E(0, 1), E(1, 2), E(2, 0)}, 1, []int64{2, 2, 2}},
		{"triangle, duplicate and reversed edges", 3,
			[]graph.Edge{E(1, 0), E(0, 1), E(2, 1), E(0, 2), E(2, 0)}, 1, []int64{2, 2, 2}},
		{"triangle with pendant", 4, []graph.Edge{E(0, 1), E(1, 2), E(2, 0), E(2, 3)}, 1, []int64{2, 2, 2, 0}},
		{"diamond", 4, []graph.Edge{E(0, 1), E(0, 2), E(1, 2), E(1, 3), E(2, 3)}, 2, []int64{2, 4, 4, 2}},
		{"K4", 4, []graph.Edge{E(0, 1), E(0, 2), E(0, 3), E(1, 2), E(1, 3), E(2, 3)}, 4, []int64{6, 6, 6, 6}},
		{"self-loop", 2, []graph.Edge{E(0, 1), E(0, 0)}, 1, []int64{5, 1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			g := &graph.Graph{Name: "tc-known", NumVertices: tt.n, Edges: tt.edges}
			total, perVertex := countTriangles(g.BuildUndirectedSets(), tt.n)
			if total != tt.total || !slices.Equal(perVertex, tt.perVertex) {
				t.Fatalf("total %d, per vertex %v; want %d, %v", total, perVertex, tt.total, tt.perVertex)
			}
		})
	}
}

// TestCountTrianglesRelabelled checks that renaming the vertices renames the
// count and changes nothing else, over 300 random multigraphs with duplicate
// edges and self-loops. A relabelling moves the pair ownership that breaks
// degree ties on vertex id and the order rows are stamped in, so a pair that
// the count drops or takes twice under one labelling shows up here.
func TestCountTrianglesRelabelled(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn(40)
		perm := src.Perm(n)
		g := &graph.Graph{Name: "tc-relabel", NumVertices: n}
		h := &graph.Graph{Name: "tc-relabel", NumVertices: n}
		for i, edges := 0, src.Intn(6*n); i < edges; i++ {
			u, v := src.Intn(n), src.Intn(n)
			g.Edges = append(g.Edges, E(u, v))
			h.Edges = append(h.Edges, E(perm[u], perm[v]))
		}
		total, perVertex := countTriangles(g.BuildUndirectedSets(), n)
		hTotal, hPerVertex := countTriangles(h.BuildUndirectedSets(), n)
		if hTotal != total {
			t.Fatalf("seed %d: total %d after relabelling, %d before", seed, hTotal, total)
		}
		for v := range n {
			if hPerVertex[perm[v]] != perVertex[v] {
				t.Fatalf("seed %d: vertex %d (now %d) counts %d after relabelling, %d before",
					seed, v, perm[v], hPerVertex[perm[v]], perVertex[v])
			}
		}
	}
}

// FuzzTriangleCount decodes arbitrary bytes into a multigraph of at most 64
// vertices — duplicate edges, both orientations of a pair and self-loops all
// occur — with every edge's owner on 1 to 4 machines, and checks that every
// Result equals triangleCountSpec's, that the count agrees across the four
// machine counts and, on a graph Validate accepts, that it equals a
// brute-force count over the simple undirected graph.
//
// A self-loop is outside the graph contract (Validate rejects it; no input
// path admits one), and TriangleCount, like its spec, counts the looped
// vertex as a common neighbour of its own edges, so on such graphs the spec
// and the agreement across machine counts are the checks.
func FuzzTriangleCount(f *testing.F) {
	f.Add(byte(4), []byte{0, 1, 0, 1, 2, 1, 2, 0, 2, 1, 3, 3})
	f.Add(byte(5), []byte{0, 1, 0, 1, 0, 1, 1, 0, 2, 1, 2, 3, 2, 0, 1, 3, 4, 2})
	f.Add(byte(63), []byte{0, 62, 1, 62, 7, 2, 7, 0, 3})
	f.Add(byte(3), []byte{1, 1, 0, 0, 1, 1, 1, 2, 2, 2, 0, 3})
	f.Add(byte(1), []byte{})
	f.Fuzz(func(t *testing.T, nb byte, raw []byte) {
		n := int(nb)%64 + 1
		// Each edge is three bytes: source, destination and owner.
		raw = raw[:min(len(raw), 3*256)/3*3]
		g := &graph.Graph{Name: "fuzz-tc", NumVertices: n}
		owners := make([]byte, 0, len(raw)/3)
		for i := 0; i < len(raw); i += 3 {
			g.Edges = append(g.Edges, E(int(raw[i])%n, int(raw[i+1])%n))
			owners = append(owners, raw[i+2])
		}

		var first TriangleResult
		for m := 1; m <= 4; m++ {
			owner := make([]engine.Machine, len(owners))
			for i, o := range owners {
				owner[i] = engine.Machine(int(o) % m)
			}
			pl, err := engine.NewPlacement(g, owner, m)
			if err != nil {
				t.Fatal(err)
			}
			cl := multiCluster(t, m)
			tc := NewTriangleCount()
			res, err := tc.Run(pl, cl)
			if err != nil {
				t.Fatal(err)
			}
			if want := triangleCountSpec(tc, pl, cl); !reflect.DeepEqual(res, want) {
				t.Fatalf("%d machines: result differs from the spec\n got %+v\nwant %+v", m, res, want)
			}
			got := res.Output.(TriangleResult)
			if m == 1 {
				first = got
			} else if got.Total != first.Total || !slices.Equal(got.PerVertex, first.PerVertex) {
				t.Fatalf("%d machines: total %d, per vertex %v; one machine: %d, %v", m, got.Total, got.PerVertex, first.Total, first.PerVertex)
			}
		}

		if g.Validate() != nil {
			return
		}
		total, perVertex := bruteTriangles(g)
		if first.Total != total || !slices.Equal(first.PerVertex, perVertex) {
			t.Fatalf("total %d, per vertex %v; brute force %d, %v", first.Total, first.PerVertex, total, perVertex)
		}
	})
}

// bruteTriangles counts the triangles of g's simple undirected graph by
// testing every vertex triple. Its per-vertex count is what TriangleCount
// reports: each of a vertex's two edges in a triangle contributes one, so a
// vertex scores twice the triangles it is in.
func bruteTriangles(g *graph.Graph) (int64, []int64) {
	n := g.NumVertices
	adj := make([]bool, n*n)
	for _, e := range g.Edges {
		adj[int(e.Src)*n+int(e.Dst)], adj[int(e.Dst)*n+int(e.Src)] = true, true
	}
	var total int64
	perVertex := make([]int64, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				if adj[a*n+b] && adj[b*n+c] && adj[a*n+c] {
					total++
					perVertex[a] += 2
					perVertex[b] += 2
					perVertex[c] += 2
				}
			}
		}
	}
	return total, perVertex
}
