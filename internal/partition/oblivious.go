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
// Single-candidate edges commit without touching the load vector at all: the
// common case once the stream warms up, since most edges land inside an
// endpoint's existing replica set.
func (*Oblivious) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	m := len(shares)
	// placed[v] is the bitmask of machines already hosting a replica of v.
	placed := make([]uint64, g.NumVertices)
	load := make([]int64, m)
	owner := make([]engine.Machine, len(g.Edges))
	allMask := uint64(1)<<uint(m) - 1

	// pickBest resolves a non-empty candidate set exactly as the spec's scan:
	// lowest normalized load, first index winning ties. A single candidate
	// needs no scan — the scan could only return that machine.
	pickBest := func(candidates uint64) engine.Machine {
		if candidates&(candidates-1) == 0 {
			return engine.Machine(bits.TrailingZeros64(candidates))
		}
		best := int32(-1)
		bestScore := 0.0
		for mask := candidates; mask != 0; mask &= mask - 1 {
			p := int32(bits.TrailingZeros64(mask))
			// Normalized load: edges held relative to the CCR target share.
			score := float64(load[p]) / shares[p]
			if best == -1 || score < bestScore {
				best, bestScore = p, score
			}
		}
		return engine.Machine(best)
	}

	for i, e := range g.Edges {
		best := pickBest(obliviousCandidates(placed[e.Src], placed[e.Dst], allMask))
		owner[i] = best
		load[best]++
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return owner, nil
}
