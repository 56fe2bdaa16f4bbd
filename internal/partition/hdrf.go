package partition

import (
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// hdrfTie ranks machine p for seed-deterministic tie-breaking on edge i.
func hdrfTie(seed uint64, i, p int) uint64 {
	return rng.Hash3(seed, uint64(i), uint64(p))
}

// HDRF is the High-Degree (are) Replicated First streaming vertex-cut of
// Petroni et al. (CIKM 2015) — an extension beyond the paper's five
// algorithms, included as a stronger replication-minimizing baseline. For
// each edge it prefers replicating the endpoint whose (partial) degree is
// higher, since hubs will be replicated anyway:
//
//	score(p) = C_rep(p) + Lambda · C_bal(p)
//	C_rep(p) = g(u, p) + g(v, p)
//	g(u, p)  = 1 + (1 − θ(u))   if machine p already hosts u, else 0
//	θ(u)     = δ(u) / (δ(u) + δ(v))   (partial-degree fraction)
//	C_bal(p) = (maxLoad − load(p)) / (1 + maxLoad − minLoad)
//
// The heterogeneity-aware extension applies the same trick as the paper's
// Section II: loads are normalized by the machines' CCR shares, so "least
// loaded" means furthest below the CCR target.
//
// Score ties are broken by a seed-keyed hash of (edge index, machine), not
// by machine order: on the very first edges every machine scores identically
// (no replicas anywhere, all loads zero), so an index-order tie-break would
// bias early placement toward machine 0 regardless of seed. The seed
// parameter affects placement only through this tie-breaking — the scores
// themselves are fully determined by the stream.
type HDRF struct {
	// Lambda weights the balance term (Petroni et al. default 1).
	Lambda float64
}

// NewHDRF returns the algorithm with the published default.
func NewHDRF() *HDRF { return &HDRF{Lambda: 1} }

// Name implements Partitioner.
func (*HDRF) Name() string { return "hdrf" }

// Partition implements Partitioner. The stream is order-dependent (partial
// degrees, replica masks and the live min/max of the load vector all evolve
// per edge), so it runs as one sequential loop, bit-identical to
// referenceHDRF.
func (h *HDRF) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	return h.stream(g, shares, seed, make([]engine.Machine, len(g.Edges)), 0), nil
}

// stream replays owner[:from] into the partial degrees, replica masks and
// loads, then scores g.Edges[from:] at their own edge indices and returns
// owner, which has one entry per edge of g. Loads are normalized against
// len(g.Edges)+1 throughout. Partition streams from 0; Amend streams the
// inserts after the survivors.
func (h *HDRF) stream(g *graph.Graph, shares []float64, seed uint64, owner []engine.Machine, from int) []engine.Machine {
	placed := make([]uint64, g.NumVertices) // replica bitmasks
	partial := make([]int32, g.NumVertices) // streaming partial degrees
	load := make([]float64, len(shares))    // share-normalized loads
	rawLoad := make([]int64, len(shares))
	denom := float64(len(g.Edges) + 1)
	for i, o := range owner[:from] {
		e := g.Edges[i]
		placed[e.Src] |= 1 << uint(o)
		placed[e.Dst] |= 1 << uint(o)
		partial[e.Src]++
		partial[e.Dst]++
		rawLoad[o]++
	}
	for p, raw := range rawLoad {
		load[p] = float64(raw) / (shares[p] * denom)
	}
	for i := from; i < len(g.Edges); i++ {
		e := g.Edges[i]
		partial[e.Src]++
		partial[e.Dst]++
		du, dv := float64(partial[e.Src]), float64(partial[e.Dst])
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU
		best := h.score(seed, i, load, placed[e.Src], placed[e.Dst], 1+(1-thetaU), 1+(1-thetaV))
		owner[i] = best
		rawLoad[best]++
		// Normalized load: edges relative to the CCR-proportional target.
		load[best] = float64(rawLoad[best]) / (shares[best] * denom)
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return owner
}

// score picks edge i's machine from its endpoint replica masks and gather
// scores against the loads, exactly as the spec's scan.
func (h *HDRF) score(seed uint64, i int, load []float64, maskU, maskV uint64, gU, gV float64) engine.Machine {
	minLoad, maxLoad := load[0], load[0]
	for _, l := range load[1:] {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	best := engine.Machine(0)
	bestScore := -1.0
	for p := range load {
		rep := 0.0
		bit := uint64(1) << uint(p)
		if maskU&bit != 0 {
			rep += gU
		}
		if maskV&bit != 0 {
			rep += gV
		}
		bal := (maxLoad - load[p]) / (1 + maxLoad - minLoad)
		score := rep + h.Lambda*bal
		if score > bestScore {
			bestScore, best = score, engine.Machine(p)
		} else if score == bestScore && hdrfTie(seed, i, p) > hdrfTie(seed, i, int(best)) {
			best = engine.Machine(p)
		}
	}
	return best
}
