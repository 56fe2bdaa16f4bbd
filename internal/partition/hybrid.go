package partition

import (
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/par"
)

// Hybrid is the mixed-cut of PowerLyra (Section II-C): edge-cut for
// low-degree vertices, vertex-cut for high-degree ones.
//
// Phase 1 assigns every edge by a (share-weighted) hash of its target
// vertex, grouping each vertex's in-edges with it — an edge cut with no
// mirrors for low-degree vertices. After the scan, vertices whose in-degree
// exceeds Threshold have their in-edges reassigned by hashing the source
// vertex, so a high-degree vertex's mirrors are bounded by the number of
// machines instead of its degree. Both phases use the CCR-weighted hash, the
// paper's heterogeneity-aware extension ("exactly the same as in the Random
// Hash method").
type Hybrid struct {
	// Threshold is the in-degree above which a vertex is treated as
	// high-degree (PowerLyra's default is 100).
	Threshold int32
}

// NewHybrid returns the algorithm with PowerLyra's default threshold.
func NewHybrid() *Hybrid { return &Hybrid{Threshold: 100} }

// Name implements Partitioner.
func (*Hybrid) Name() string { return "hybrid" }

// Partition implements Partitioner. Given exact in-degrees, every edge's
// owner is a pure function of its endpoints and the seed, so both the
// in-degree count and the assignment scan shard across GOMAXPROCS
// workers; the result is bit-identical to referenceHybrid at any worker count.
func (h *Hybrid) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	owner := make([]engine.Machine, len(g.Edges))
	inDeg := g.InDegreesParallel()
	defer graph.ReleaseDegrees(inDeg)

	par.Ranges(len(g.Edges), func(_, lo, hi int) {
		edges := g.Edges[lo:hi]
		for i := range edges {
			e := edges[i]
			if inDeg[e.Dst] > h.Threshold {
				// Second pass, folded in: the full scan already gave us exact
				// in-degrees, so high-degree targets reassign by source hash.
				owner[lo+i] = pk.pick(vertexHash(seed+1, e.Src))
			} else {
				owner[lo+i] = pk.pick(vertexHash(seed, e.Dst))
			}
		}
	})
	return owner, nil
}
