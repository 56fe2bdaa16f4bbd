package partition

import (
	"math/bits"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// Oblivious is PowerGraph's greedy streaming vertex-cut (Section II-B2):
// each edge prefers machines that already host its endpoints, breaking ties
// toward the least-loaded machine. The heterogeneity-aware extension
// normalizes each machine's load by its share, so "least loaded" means
// furthest below its CCR-proportional target.
type Oblivious struct{}

// NewOblivious returns the algorithm.
func NewOblivious() *Oblivious { return &Oblivious{} }

// Name implements Partitioner.
func (*Oblivious) Name() string { return "oblivious" }

// obliviousCandidates derives an edge's candidate machine set from its
// endpoints' replica masks: machines hosting both endpoints (no new mirror),
// else machines hosting either (one new mirror), else everyone.
func obliviousCandidates(maskU, maskV, allMask uint64) uint64 {
	switch {
	case maskU&maskV != 0:
		return maskU & maskV
	case maskU != 0 && maskV != 0:
		return maskU | maskV
	case maskU != 0:
		return maskU
	case maskV != 0:
		return maskV
	}
	return allMask
}

// Partition implements Partitioner. The stream is order-dependent — each
// placement updates the replica masks and loads the next edge reads — so it
// runs as one sequential loop, bit-identical to referenceOblivious.
func (*Oblivious) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	return obliviousStream(g, shares, make([]engine.Machine, len(g.Edges)), 0), nil
}

// obliviousStream replays owner[:from] into the replica masks and loads, then
// places g.Edges[from:] through the greedy rule and returns owner, which has
// one entry per edge of g. Partition streams from 0; Amend streams the
// inserts after the survivors. Single-candidate edges commit without touching
// the load vector at all: the common case once the stream warms up, since
// most edges land inside an endpoint's existing replica set.
func obliviousStream(g *graph.Graph, shares []float64, owner []engine.Machine, from int) []engine.Machine {
	// placed[v] is the bitmask of machines already hosting a replica of v.
	placed := make([]uint64, g.NumVertices)
	load := make([]int64, len(shares))
	for i, o := range owner[:from] {
		e := g.Edges[i]
		placed[e.Src] |= 1 << uint(o)
		placed[e.Dst] |= 1 << uint(o)
		load[o]++
	}
	allMask := uint64(1)<<uint(len(shares)) - 1
	for i := from; i < len(g.Edges); i++ {
		e := g.Edges[i]
		candidates := obliviousCandidates(placed[e.Src], placed[e.Dst], allMask)
		// A single candidate needs no scan: the scan could only return it.
		best := engine.Machine(bits.TrailingZeros64(candidates))
		if rest := candidates & (candidates - 1); rest != 0 {
			// Lowest normalized load, first index winning ties: edges held
			// relative to the CCR target share.
			bestScore := float64(load[best]) / shares[best]
			for mask := rest; mask != 0; mask &= mask - 1 {
				p := bits.TrailingZeros64(mask)
				if score := float64(load[p]) / shares[p]; score < bestScore {
					best, bestScore = engine.Machine(p), score
				}
			}
		}
		owner[i] = best
		load[best]++
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return owner
}
