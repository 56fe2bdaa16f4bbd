package apps

import (
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// TriangleCount counts the triangles in the graph's undirected structure,
// the paper's fourth application: "it counts the number of intersections of
// vertex u's and vertex v's neighbor sets for every edge (u,v)". Each machine
// processes its local edges and is charged, per edge, the linear merge of the
// two endpoints' neighbor lists — min(deg a, deg b) probes — so the work a
// machine receives depends on the degrees of its edges' endpoints, which is
// why Triangle Count's CCRs react to degree distribution more sharply than
// the other applications (Fig 8a's 8xlarge jump, Case 3's distinctive 1:4.5
// ratio). The host counts on unsorted neighbor sets instead of merging: see
// countTriangles.
type TriangleCount struct{}

// NewTriangleCount returns the application.
func NewTriangleCount() *TriangleCount { return &TriangleCount{} }

// Name implements App.
func (tc *TriangleCount) Name() string { return "triangle_count" }

// Coeffs: the modelled merge probes stream two sorted arrays — very
// cache-friendly, so few memory bytes per op; Triangle Count is the
// compute-bound application that keeps scaling with cores in Fig 2. (The
// host stamps one row and scans the other; the charge stays the merge.)
func (tc *TriangleCount) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    30, // per merge probe
		BytesPerGather:  30,
		OpsPerApply:     60, // per-edge setup
		BytesPerApply:   240,
		OpsPerVertex:    12,
		BytesPerVertex:  8,
		SerialFrac:      0.04,
		StepOverheadOps: 2e3,
		AccumBytes:      12,
		ValueBytes:      0,
	}
}

// TriangleResult is the application output.
type TriangleResult struct {
	// Total is the number of triangles in the undirected graph.
	Total int64
	// PerVertex holds, for each vertex, the sum over its distinct undirected
	// edges of the common neighbours of the edge's two endpoints: on a graph
	// Validate accepts, twice the number of triangles the vertex is in.
	PerVertex []int64
}

// Run implements App.
func (tc *TriangleCount) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return tc.runTraced(pl, cl, nil)
}

func (tc *TriangleCount) runTraced(pl *engine.Placement, cl *cluster.Cluster, col trace.Collector) (*engine.Result, error) {
	if cl.Size() != pl.M {
		return nil, fmt.Errorf("triangle_count: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	und := g.BuildUndirectedSets()
	total, perVertex := countTriangles(und, g.NumVertices)

	// The charges walk each machine's local edges. Each undirected pair is
	// charged exactly once even if the edge list contains duplicates or both
	// orientations; the first machine to reach a pair (in edge order) owns
	// it.
	first := firstOccurrences(pl)

	// Per-vertex counts travel to a remote master once per machine, not once
	// per edge (PowerGraph aggregates partial sums locally before the
	// exchange).
	sentStamp := make([]int32, g.NumVertices)
	for i := range sentStamp {
		sentStamp[i] = -1
	}

	var countersBuf [engine.MaxMachines]engine.StepCounters // a placement has at most MaxMachines
	counters := countersBuf[:pl.M]
	for p := 0; p < pl.M; p++ {
		sc := &counters[p]
		sc.Vertices = float64(len(pl.MasterVerts[p]))
		for _, ei := range pl.LocalEdges()[p] {
			if first[ei/64]&(1<<(ei%64)) == 0 {
				sc.Applies++ // duplicate detection still costs a probe
				continue
			}
			e := g.Edges[ei]
			a, b := min(e.Src, e.Dst), max(e.Src, e.Dst)
			// A merge scans min(len) on average; charge the merge length.
			probes := min(und.Degree(a), und.Degree(b))
			sc.Gathers += float64(probes)
			if float64(probes) > sc.MaxUnit {
				sc.MaxUnit = float64(probes) // one edge's merge is sequential
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
		}
	}

	// The whole count is one step over every vertex.
	account := engine.NewAccountant(cl, tc.Coeffs())
	account.SetCollector(col)
	account.StepBegin(0, g.NumVertices, "sync")
	account.Superstep(counters)

	out := TriangleResult{Total: total, PerVertex: perVertex}
	return account.Finish(tc.Name(), g.Name, out), nil
}

// firstOccurrences returns one bit per edge, set on the edge at which the
// charge walk (machine by machine, local edges in order) first reaches its
// undirected pair. The walk is counting-sorted by the pair's lower endpoint,
// in walk order within each bucket; reading the buckets in ascending order,
// stamp[hi] == lo+1 means the pair {lo, hi} was reached before.
func firstOccurrences(pl *engine.Placement) []uint64 {
	g := pl.G
	start := make([]int32, g.NumVertices+1)
	for _, e := range g.Edges {
		start[min(e.Src, e.Dst)+1]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	byLower := make([]int32, len(g.Edges))
	for _, local := range pl.LocalEdges() {
		for _, ei := range local {
			lo := min(g.Edges[ei].Src, g.Edges[ei].Dst)
			byLower[start[lo]] = ei
			start[lo]++
		}
	}
	stamp := start[:g.NumVertices] // reused, cleared: every mark is lo+1 >= 1
	clear(stamp)
	first := make([]uint64, (len(g.Edges)+63)/64)
	for _, ei := range byLower {
		e := g.Edges[ei]
		lo, hi := min(e.Src, e.Dst), max(e.Src, e.Dst)
		if stamp[hi] != int32(lo)+1 {
			stamp[hi] = int32(lo) + 1
			first[ei/64] |= 1 << (ei % 64)
		}
	}
	return first
}

// countTriangles sums, over every pair {a, b} of the undirected neighbor
// sets und (self-loops included), the common neighbours of a and b, adding
// each pair's count to perVertex[a] and perVertex[b]; every triangle is seen
// by its three pairs, so the total is divided by three. A pair belongs to
// the endpoint with the longer row, ties going to the lower id. Each row is
// stamped once into a |V| array (stamp[u] == v+1 while row v is visited) and
// the other endpoint of each pair it owns is scanned against it, so the work
// is the sum over pairs of the shorter row.
func countTriangles(und *graph.CSR, n int) (total int64, perVertex []int64) {
	stamp := make([]int32, n)
	perVertex = make([]int64, n)
	for v := range n {
		row := und.Neighbors(graph.VertexID(v))
		mark := int32(v) + 1
		for _, w := range row {
			stamp[w] = mark
		}
		for _, u := range row {
			if du := und.Degree(u); du > len(row) || du == len(row) && int(u) < v {
				continue // u owns the pair
			}
			var common int64
			for _, w := range und.Neighbors(u) {
				if stamp[w] == mark {
					common++
				}
			}
			total += common
			perVertex[v] += common
			perVertex[u] += common
		}
	}
	return total / 3, perVertex
}
