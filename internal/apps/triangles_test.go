package apps

import (
	"slices"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// BenchmarkTriangleCount times one Triangle Count run — undirected CSR build,
// the per-edge merge walk and the accounting — on a power-law graph of 5,000
// vertices and 40,000 edges over four heterogeneous machines. make check runs
// it once so it keeps compiling; it is the host-time baseline a rewrite of
// the count is measured against.
func BenchmarkTriangleCount(b *testing.B) {
	g, err := gen.Generate(gen.Spec{
		Name: "tc-bench", Vertices: 5000, Edges: 40000, Kind: gen.KindPowerLaw,
	}, 11)
	if err != nil {
		b.Fatal(err)
	}
	var machines []cluster.Machine
	for _, name := range []string{"c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge"} {
		m, ok := cluster.ByName(name)
		if !ok {
			b.Fatalf("unknown machine %q", name)
		}
		machines = append(machines, m)
	}
	cl, err := cluster.New(machines...)
	if err != nil {
		b.Fatal(err)
	}
	owner := make([]engine.Machine, len(g.Edges))
	for i := range owner {
		owner[i] = engine.Machine(i % len(machines))
	}
	pl, err := engine.NewPlacement(g, owner, len(machines))
	if err != nil {
		b.Fatal(err)
	}
	tc := NewTriangleCount()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := tc.Run(pl, cl); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzTriangleCount decodes arbitrary bytes into a multigraph of at most 64
// vertices — duplicate edges, both orientations of a pair and self-loops all
// occur — with every edge's owner on 1 to 4 machines, and checks that the
// count agrees across the four machine counts and, on a graph Validate
// accepts, equals a brute-force count over the simple undirected graph.
//
// A self-loop is outside the graph contract (Validate rejects it; no input
// path admits one), and TriangleCount counts the looped vertex as a common
// neighbour of its own edges, so only the agreement across machine counts is
// checked on such graphs.
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
			res, err := NewTriangleCount().Run(pl, multiCluster(t, m))
			if err != nil {
				t.Fatal(err)
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
