package partition

import (
	"sync"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/par"
)

// Ginger is the heuristic refinement of Hybrid from PowerLyra, following
// Fennel (Section II-C1). High-degree vertices are handled exactly as in
// Hybrid. Each low-degree vertex v is then re-assigned (with its grouped
// in-edges) to the machine maximizing
//
//	score(v, p) = |N_in(v) ∩ V_p| − h_p · b(p)
//	b(p)        = ½ (|V_p| + |V|/|E| · |E_p|)
//
// where V_p, E_p are the vertices and edges already on machine p: affinity
// to in-neighbors minus a balance penalty. The paper's heterogeneity factor
// h_p = 1/(CCR share · M) shrinks the penalty for fast machines so they
// "gain a better score" and absorb proportionally more vertices.
type Ginger struct {
	// Threshold is the high-degree cutoff shared with Hybrid.
	Threshold int32
	// Gamma scales the balance penalty (1 reproduces PowerLyra's b(p)).
	Gamma float64
}

// NewGinger returns the algorithm with default parameters.
func NewGinger() *Ginger { return &Ginger{Threshold: 100, Gamma: 1} }

// Name implements Partitioner.
func (*Ginger) Name() string { return "ginger" }

// gingerInCSRPool recycles the refinement sweep's unsorted in-adjacency
// (rebuilt in place per call, see graph.InCSRInto) so repeated ingress runs
// stop paying the CSR construction allocations.
var gingerInCSRPool = sync.Pool{New: func() any { return new(graph.CSR) }}

// Partition implements Partitioner. Phase 1 (the per-vertex seed hash) and
// the final edge scan are pure per-element functions and shard across
// GOMAXPROCS workers; the greedy refinement between them visits vertices in
// ID order against evolving loads and is sequential by definition (see
// refine). The owner vector is bit-identical to referenceGinger.
func (gp *Ginger) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	inDeg := g.InDegreesParallel()
	defer graph.ReleaseDegrees(inDeg)

	// Phase 1 (as Hybrid): low-degree in-edges group with the target,
	// high-degree in-edges scatter by source hash.
	assign := make([]engine.Machine, g.NumVertices) // low-degree vertex -> machine
	par.Ranges(len(assign), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			assign[v] = pk.pick(vertexHash(seed, graph.VertexID(v)))
		}
	})

	gp.refine(g, shares, inDeg, assign, nil)
	owner := make([]engine.Machine, len(g.Edges))
	gp.scan(g, pk, seed, inDeg, assign, owner)
	return owner, nil
}

// scan is the final edge pass, a pure per-edge function sharded over
// GOMAXPROCS workers: an in-edge of a high-degree destination goes where its
// source hashes, any other in-edge to its destination's assigned machine.
func (gp *Ginger) scan(g *graph.Graph, pk picker, seed uint64, inDeg []int32, assign, owner []engine.Machine) {
	par.Ranges(len(g.Edges), func(_, lo, hi int) {
		edges := g.Edges[lo:hi]
		for i := range edges {
			e := edges[i]
			if inDeg[e.Dst] > gp.Threshold {
				owner[lo+i] = pk.pick(vertexHash(seed+1, e.Src))
			} else {
				owner[lo+i] = assign[e.Dst]
			}
		}
	})
}

// refine is phase 2: greedily re-place low-degree vertices by the
// Fennel-style score over their in-neighborhoods, in ascending ID order
// against per-machine loads accumulated from the complete assignment and
// updated as each vertex moves. A nil subset visits every low-degree vertex,
// as Partition needs; Amend passes the vertices its delta disturbed, in
// ascending order. The full sweep is refineSequential's loop
// (reference_test.go, the executable spec it is pinned against) over the
// pooled unsorted in-CSR. Row order within a neighborhood differs from the
// sorted reference CSR, which is invisible: the histogram accumulates exact
// integer counts, so per-machine neighborCount — and every score — is
// bit-identical.
func (gp *Ginger) refine(g *graph.Graph, shares []float64, inDeg []int32, assign []engine.Machine, subset []graph.VertexID) {
	m := len(shares)
	vCount := make([]float64, m)
	eCount := make([]float64, m)
	for v := range assign {
		vCount[assign[v]]++
		eCount[assign[v]] += float64(inDeg[v])
	}
	ratio := 0.0
	if len(g.Edges) > 0 {
		ratio = float64(g.NumVertices) / float64(len(g.Edges))
	}
	hetFactor := make([]float64, m)
	for p := range hetFactor {
		hetFactor[p] = 1 / (shares[p] * float64(m))
	}

	in := gingerInCSRPool.Get().(*graph.CSR)
	defer gingerInCSRPool.Put(in)
	g.InCSRInto(in)

	visits := g.NumVertices
	if subset != nil {
		visits = len(subset)
	}
	neighborCount := make([]float64, m)
	for k := 0; k < visits; k++ {
		v := k
		if subset != nil {
			v = int(subset[k])
		}
		if inDeg[v] > gp.Threshold {
			continue
		}
		cur := assign[v]
		// Remove v from its current machine while scoring (self-exclusion).
		vCount[cur]--
		eCount[cur] -= float64(inDeg[v])

		for p := range neighborCount {
			neighborCount[p] = 0
		}
		for _, u := range in.Neighbors(graph.VertexID(v)) {
			if inDeg[u] <= gp.Threshold {
				neighborCount[assign[u]]++
			}
		}
		best := engine.Machine(0)
		bestScore := 0.0
		for p := 0; p < m; p++ {
			balance := 0.5 * gp.Gamma * (vCount[p] + ratio*eCount[p])
			score := neighborCount[p] - hetFactor[p]*balance
			if p == 0 || score > bestScore {
				best, bestScore = engine.Machine(p), score
			}
		}
		assign[v] = best
		vCount[best]++
		eCount[best] += float64(inDeg[v])
	}
}
