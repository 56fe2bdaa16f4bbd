package partition

import (
	"sync"

	"proxygraph/internal/graph"
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

// gingerScratch holds the refinement sweep's large reusable buffers: the
// unsorted in/out adjacency (rebuilt in place per call, see graph.InCSRInto)
// and the window histogram arena. Pooled so repeated ingress runs stop paying
// the CSR construction allocations.
type gingerScratch struct {
	in, out graph.CSR
	hist    []int32
}

var gingerScratchPool = sync.Pool{New: func() any { return new(gingerScratch) }}

// Partition implements Partitioner. Phase 1 (the per-vertex seed hash) and
// the final edge scan are pure per-element functions and shard across
// ParallelShards workers; the greedy refinement between them visits vertices
// in ID order against evolving loads and runs window-batched (see refine).
// The owner vector is bit-identical to referenceGinger at any shard count.
func (gp *Ginger) Partition(g *graph.Graph, shares []float64, seed uint64) ([]int32, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	inDeg := g.InDegreesParallel(resolveShards(len(g.Edges)))
	owner := make([]int32, len(g.Edges))

	// Phase 1 (as Hybrid): low-degree in-edges group with the target,
	// high-degree in-edges scatter by source hash.
	assign := make([]int32, g.NumVertices) // low-degree vertex -> machine
	parallelRanges(len(assign), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			assign[v] = pk.pick(vertexHash(seed, graph.VertexID(v)))
		}
	})

	gp.refine(g, shares, inDeg, assign)

	parallelRanges(len(g.Edges), func(lo, hi int) {
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
	return owner, nil
}

// refine is phase 2: greedily re-place each low-degree vertex by the
// Fennel-style score over its in-neighborhood, visiting vertices in ID order
// against the evolving per-machine loads. The sweep is order-dependent, so
// it cannot shard naively; instead it runs window-batched (refineWindowed)
// when more than one worker resolves, falling back to the direct sequential
// loop at one shard — where windowing is pure overhead — while keeping the
// pooled unsorted CSR, which is what makes the single-shard production path
// faster than referenceGinger's sorted-CSR build. refineSequential in
// reference.go is the executable spec both paths are pinned against.
func (gp *Ginger) refine(g *graph.Graph, shares []float64, inDeg []int32, assign []int32) {
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

	sc := gingerScratchPool.Get().(*gingerScratch)
	defer gingerScratchPool.Put(sc)
	g.InCSRInto(&sc.in)

	if resolveShards(g.NumVertices) == 1 {
		gp.refineDirect(g, &sc.in, inDeg, assign, vCount, eCount, hetFactor, ratio)
		return
	}
	gp.refineWindowed(g, sc, inDeg, assign, vCount, eCount, hetFactor, ratio)
}

// refineDirect is the single-shard sweep: the sequential spec's loop over the
// pooled unsorted in-CSR. Row order within a neighborhood differs from the
// sorted reference CSR, which is invisible: the histogram accumulates exact
// integer counts, so per-machine neighborCount — and every score — is
// bit-identical.
func (gp *Ginger) refineDirect(g *graph.Graph, in *graph.CSR, inDeg []int32, assign []int32, vCount, eCount, hetFactor []float64, ratio float64) {
	m := len(hetFactor)
	neighborCount := make([]float64, m)
	for v := 0; v < g.NumVertices; v++ {
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
		best := int32(0)
		bestScore := 0.0
		for p := 0; p < m; p++ {
			balance := 0.5 * gp.Gamma * (vCount[p] + ratio*eCount[p])
			score := neighborCount[p] - hetFactor[p]*balance
			if p == 0 || score > bestScore {
				best, bestScore = int32(p), score
			}
		}
		assign[v] = best
		vCount[best]++
		eCount[best] += float64(inDeg[v])
	}
}

// refineWindowed is the multi-shard sweep. Each window of gingerWindowSize
// vertices runs two phases:
//
//  1. parallel histogram fill: every window vertex counts its low-degree
//     in-neighbors per machine against the assignment frozen at the window
//     boundary — safe because the commit loop of the previous window has
//     finished and this window's has not started;
//  2. sequential commit in ID order: score each vertex from its histogram row
//     and the live vCount/eCount, move it, and patch the rows of its
//     not-yet-committed out-neighbors inside the window when it moved.
//
// The patching is what makes the result exact rather than approximate: at
// vertex v's commit, a low-degree in-neighbor u contributes to v's row under
// u's frozen machine if u is outside the window or after v (where frozen =
// live), and under its patched — i.e. live — machine if u moved earlier in
// this window. Every score therefore sees exactly the assignment the
// sequential spec would, and the sweep is bit-identical to refineSequential
// at every shard count and window size.
func (gp *Ginger) refineWindowed(g *graph.Graph, sc *gingerScratch, inDeg []int32, assign []int32, vCount, eCount, hetFactor []float64, ratio float64) {
	m := len(hetFactor)
	window := gingerWindowSize
	g.OutCSRInto(&sc.out)
	sc.hist = growInts(sc.hist, window*m)
	hist := sc.hist
	n := g.NumVertices
	for lo := 0; lo < n; lo += window {
		hi := lo + window
		if hi > n {
			hi = n
		}
		parallelRanges(hi-lo, func(rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				v := graph.VertexID(lo + r)
				row := hist[r*m : r*m+m]
				clear(row)
				if inDeg[v] > gp.Threshold {
					continue
				}
				for _, u := range sc.in.Neighbors(v) {
					if inDeg[u] <= gp.Threshold {
						row[assign[u]]++
					}
				}
			}
		})
		for v := lo; v < hi; v++ {
			if inDeg[v] > gp.Threshold {
				continue
			}
			cur := assign[v]
			vCount[cur]--
			eCount[cur] -= float64(inDeg[v])

			row := hist[(v-lo)*m : (v-lo)*m+m]
			best := int32(0)
			bestScore := 0.0
			for p := 0; p < m; p++ {
				balance := 0.5 * gp.Gamma * (vCount[p] + ratio*eCount[p])
				score := float64(row[p]) - hetFactor[p]*balance
				if p == 0 || score > bestScore {
					best, bestScore = int32(p), score
				}
			}
			assign[v] = best
			vCount[best]++
			eCount[best] += float64(inDeg[v])
			if best != cur {
				// v's move invalidates the frozen histograms of the window
				// vertices it feeds; shift its count to the new machine. Only
				// rows after v still get consumed, and only low-degree
				// in-neighbors were counted (v is low-degree here).
				for _, w := range sc.out.Neighbors(graph.VertexID(v)) {
					if int(w) > v && int(w) < hi && inDeg[w] <= gp.Threshold {
						hist[(int(w)-lo)*m+int(cur)]--
						hist[(int(w)-lo)*m+int(best)]++
					}
				}
			}
		}
	}
}
