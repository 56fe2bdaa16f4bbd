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
// processes its local edges; the per-edge cost is the linear merge of two
// sorted neighbor lists, so the work a machine receives depends on the
// degrees of its edges' endpoints — which is why Triangle Count's CCRs react
// to degree distribution more sharply than the other applications (Fig 8a's
// 8xlarge jump, Case 3's distinctive 1:4.5 ratio).
type TriangleCount struct{}

// NewTriangleCount returns the application.
func NewTriangleCount() *TriangleCount { return &TriangleCount{} }

// Name implements App.
func (tc *TriangleCount) Name() string { return "triangle_count" }

// Coeffs: merge probes stream two sorted arrays — very cache-friendly, so
// few memory bytes per op; Triangle Count is the compute-bound application
// that keeps scaling with cores in Fig 2.
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
	// PerVertex holds each vertex's triangle membership count.
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
	und := g.BuildUndirectedCSR()

	// Each undirected pair must be counted exactly once even if the edge
	// list contains duplicates or both orientations; the first machine to
	// reach a pair (in edge order) owns it.
	seen := make(map[uint64]struct{}, len(g.Edges))
	perVertex := make([]int64, g.NumVertices)
	var total int64

	// Per-vertex counts travel to a remote master once per machine, not once
	// per edge (PowerGraph aggregates partial sums locally before the
	// exchange).
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
				sc.Applies++ // duplicate detection still costs a probe
				continue
			}
			seen[key] = struct{}{}
			na, nb := und.Neighbors(a), und.Neighbors(b)
			common := graph.IntersectionSize(na, nb)
			// Merge scans min(len) on average; charge the merge length.
			probes := len(na)
			if len(nb) < probes {
				probes = len(nb)
			}
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
			total += int64(common)
			perVertex[a] += int64(common)
			perVertex[b] += int64(common)
		}
	}

	// The whole count is one step over every vertex.
	account := engine.NewAccountant(cl, tc.Coeffs())
	account.SetCollector(col)
	account.StepBegin(0, g.NumVertices, "sync")
	account.Superstep(counters)

	// Each triangle is seen by its three edges.
	out := TriangleResult{Total: total / 3, PerVertex: perVertex}
	return account.Finish(tc.Name(), g.Name, out), nil
}

// CountTriangles is a convenience wrapper that runs on a single machine and
// returns only the count (used by tests and examples).
func CountTriangles(g *graph.Graph, m cluster.Machine) (int64, error) {
	cl, err := cluster.New(m)
	if err != nil {
		return 0, err
	}
	res, err := NewTriangleCount().Run(engine.SingleMachine(g), cl)
	if err != nil {
		return 0, err
	}
	return res.Output.(TriangleResult).Total, nil
}
