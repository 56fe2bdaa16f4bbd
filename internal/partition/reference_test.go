package partition

import (
	"math/bits"
	"sort"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// This file keeps the original single-threaded partitioner loops as
// executable specifications, mirroring how engine.RunReference anchors
// engine.Run: the production paths in randomhash.go, hybrid.go and ginger.go
// shard their hash scans over GOMAXPROCS, oblivious.go, hdrf.go and ginger's
// refinement run their order-dependent streams as one loop over cheaper data
// structures, all use the quantized picker, and the ingress differential test
// asserts their owner vectors are bit-identical to these references at every
// GOMAXPROCS and share vector. The specs
// deliberately share no code with the production paths (naive binary-search
// picks, sorted CSR builds, straight-line per-edge loops), so the
// differential is a real cross-implementation check.

// pick maps a hash to a machine with probability proportional to the shares,
// the weighted extension of PowerGraph's random edge placement (Fig 4 of the
// paper: "the probability of generating indexes for each machine strictly
// follows the CCR").
func pick(cum []float64, hash uint64) engine.Machine {
	u := float64(hash>>11) / (1 << 53)
	idx := sort.SearchFloat64s(cum, u)
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return engine.Machine(idx)
}

// referenceRandom is the sequential spec of RandomHash.Partition.
func referenceRandom(g *graph.Graph, shares []float64, seed uint64) []engine.Machine {
	cum := cumulative(shares)
	owner := make([]engine.Machine, len(g.Edges))
	for i, e := range g.Edges {
		owner[i] = pick(cum, edgeHash(seed, e))
	}
	return owner
}

// referenceHybrid is the sequential spec of Hybrid.Partition.
func referenceHybrid(h *Hybrid, g *graph.Graph, shares []float64, seed uint64) []engine.Machine {
	cum := cumulative(shares)
	owner := make([]engine.Machine, len(g.Edges))
	inDeg := g.InDegrees()
	for i, e := range g.Edges {
		if inDeg[e.Dst] > h.Threshold {
			owner[i] = pick(cum, vertexHash(seed+1, e.Src))
		} else {
			owner[i] = pick(cum, vertexHash(seed, e.Dst))
		}
	}
	return owner
}

// refineSequential is the sequential spec of Ginger's full refinement sweep,
// refine with a nil subset: every low-degree vertex in ID order against
// evolving per-machine loads, in-neighborhoods from a freshly built sorted
// CSR. Amend's subset sweeps have no spec of their own; amendPins holds them.
func refineSequential(gp *Ginger, g *graph.Graph, shares []float64, inDeg []int32, assign []engine.Machine) {
	m := len(shares)
	inCSR := g.BuildInCSR()
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

	neighborCount := make([]float64, m)
	for v := 0; v < g.NumVertices; v++ {
		if inDeg[v] > gp.Threshold {
			continue
		}
		vid := graph.VertexID(v)
		cur := assign[v]
		// Remove v from its current machine while scoring (self-exclusion).
		vCount[cur]--
		eCount[cur] -= float64(inDeg[v])

		for p := range neighborCount {
			neighborCount[p] = 0
		}
		for _, u := range inCSR.Neighbors(vid) {
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

// referenceGinger is the sequential spec of Ginger.Partition: naive hash
// phases around the sequential refinement sweep.
func referenceGinger(gp *Ginger, g *graph.Graph, shares []float64, seed uint64) []engine.Machine {
	cum := cumulative(shares)
	inDeg := g.InDegrees()
	owner := make([]engine.Machine, len(g.Edges))
	assign := make([]engine.Machine, g.NumVertices)
	for v := range assign {
		assign[v] = pick(cum, vertexHash(seed, graph.VertexID(v)))
	}
	refineSequential(gp, g, shares, inDeg, assign)
	for i, e := range g.Edges {
		if inDeg[e.Dst] > gp.Threshold {
			owner[i] = pick(cum, vertexHash(seed+1, e.Src))
		} else {
			owner[i] = assign[e.Dst]
		}
	}
	return owner
}

// referenceOblivious is the sequential spec of Oblivious.Partition: one
// straight-line pass, candidate set derived and scored per edge.
func referenceOblivious(g *graph.Graph, shares []float64) []engine.Machine {
	m := len(shares)
	placed := make([]uint64, g.NumVertices)
	load := make([]int64, m)
	owner := make([]engine.Machine, len(g.Edges))
	allMask := uint64(1)<<uint(m) - 1
	for i, e := range g.Edges {
		maskU, maskV := placed[e.Src], placed[e.Dst]
		var candidates uint64
		switch {
		case maskU&maskV != 0:
			candidates = maskU & maskV
		case maskU != 0 && maskV != 0:
			candidates = maskU | maskV
		case maskU != 0:
			candidates = maskU
		case maskV != 0:
			candidates = maskV
		default:
			candidates = allMask
		}
		best := int32(-1)
		bestScore := 0.0
		for mask := candidates; mask != 0; mask &= mask - 1 {
			p := int32(bits.TrailingZeros64(mask))
			score := float64(load[p]) / shares[p]
			if best == -1 || score < bestScore {
				best, bestScore = p, score
			}
		}
		owner[i] = engine.Machine(best)
		load[best]++
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return owner
}

// referenceHDRF is the sequential spec of HDRF.Partition: one straight-line
// pass, partial degrees, thetas and the full score scan inline per edge.
func referenceHDRF(h *HDRF, g *graph.Graph, shares []float64, seed uint64) []engine.Machine {
	m := len(shares)
	placed := make([]uint64, g.NumVertices)
	partial := make([]int32, g.NumVertices)
	load := make([]float64, m)
	rawLoad := make([]int64, m)
	owner := make([]engine.Machine, len(g.Edges))
	for i, e := range g.Edges {
		partial[e.Src]++
		partial[e.Dst]++
		du, dv := float64(partial[e.Src]), float64(partial[e.Dst])
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU

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
		for p := 0; p < m; p++ {
			rep := 0.0
			bit := uint64(1) << uint(p)
			if placed[e.Src]&bit != 0 {
				rep += 1 + (1 - thetaU)
			}
			if placed[e.Dst]&bit != 0 {
				rep += 1 + (1 - thetaV)
			}
			bal := (maxLoad - load[p]) / (1 + maxLoad - minLoad)
			score := rep + h.Lambda*bal
			if score > bestScore {
				bestScore, best = score, engine.Machine(p)
			} else if score == bestScore && hdrfTie(seed, i, p) > hdrfTie(seed, i, int(best)) {
				best = engine.Machine(p)
			}
		}
		owner[i] = best
		rawLoad[best]++
		load[best] = float64(rawLoad[best]) / (shares[best] * float64(len(g.Edges)+1))
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return owner
}
