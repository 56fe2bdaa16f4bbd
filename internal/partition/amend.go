package partition

import (
	"fmt"
	"math/bits"
	"sort"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/par"
	"proxygraph/internal/rng"
)

// Amender is implemented by partitioners that can patch an existing owner
// vector for an evolved graph instead of re-ingressing from scratch. Amend
// receives the base graph with its owner vector, the delta, and the evolved
// graph the delta produced (d.Apply(base) — survivors in stream order,
// inserts at the tail), and returns an owner vector aligned with
// evolved.Edges.
//
// Fidelity differs by algorithm and is part of each contract:
//
//   - RandomHash and Hybrid owners are pure per-edge functions, so Amend is
//     bit-identical to a full Partition of the evolved graph.
//   - Oblivious and HDRF are order-dependent streams; Amend keeps the
//     surviving owners and streams only the inserts against state rebuilt
//     from the survivors. A full re-ingress would instead replay every edge
//     with the deleted ones absent, so owners differ — but the balance
//     objective is maintained live during the continuation, so the amended
//     imbalance stays within the envelope the differential tests document
//     (10% relative + 0.05 absolute over full re-ingress).
//   - Ginger recovers its per-vertex assignment from the surviving owners,
//     re-refines only the vertices the delta disturbed, and re-runs the pure
//     final edge scan; the same envelope applies.
//
// dynamic.Migrator composes with any of these: residual drift the amendment
// leaves behind is absorbed by migration during execution.
type Amender interface {
	Partitioner
	Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error)
}

// AmendApply patches a base placement for the evolved graph via a.Amend and
// finalizes the result into a Placement, the incremental counterpart of
// Apply.
func AmendApply(a Amender, basePl *engine.Placement, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) (*engine.Placement, error) {
	owner, err := a.Amend(basePl.G, basePl.EdgeOwner, d, evolved, shares, seed)
	if err != nil {
		return nil, fmt.Errorf("partition: amend %s: %w", a.Name(), err)
	}
	return engine.NewPlacement(evolved, owner, len(shares))
}

// amendSurvivors drops the deleted edges' owners in step with Delta.Apply's
// compaction and returns the surviving owners in stream order, with capacity
// for the insert tail. It also cross-checks that evolved really is d applied
// to base, since Amend trusts evolved.Edges' layout.
func amendSurvivors(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph) ([]engine.Machine, error) {
	if len(owner) != len(base.Edges) {
		return nil, fmt.Errorf("owner vector has %d entries for %d base edges", len(owner), len(base.Edges))
	}
	deleted, err := d.DeletedIndices(base)
	if err != nil {
		return nil, err
	}
	keptCount := len(base.Edges) - len(deleted)
	if len(evolved.Edges) != keptCount+len(d.Inserts) {
		return nil, fmt.Errorf("evolved graph has %d edges, delta implies %d", len(evolved.Edges), keptCount+len(d.Inserts))
	}
	kept := make([]engine.Machine, 0, keptCount+len(d.Inserts))
	di := 0
	for i, o := range owner {
		if di < len(deleted) && deleted[di] == i {
			di++
			continue
		}
		kept = append(kept, o)
	}
	return kept, nil
}

// carrySurvivors is amendSurvivors for partitioners whose owner is a pure
// function of the edge (RandomHash, Hybrid): equal occurrences of a pair
// always have equal owners, so which occurrence of a repeated pair a delete
// claimed does not matter, and the delete index need not be resolved.
// Instead one lockstep walk of base.Edges against evolved.Edges[:kept] —
// Apply's survivors, in stream order — carries each survivor's owner and
// skips the base edges the evolved graph lacks. The returned vector has
// evolved's length; its insert tail is left for the caller to fill.
//
// The walk is also the cross-check that evolved really is d applied to base:
// it fails unless the survivors are a subsequence of base.Edges, and unless
// the skipped edges are the deletes' pairs (compared as an order-free sum of
// pair hashes), which is what lets the caller derive degree changes from the
// delta alone.
func carrySurvivors(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph) ([]engine.Machine, error) {
	if len(owner) != len(base.Edges) {
		return nil, fmt.Errorf("owner vector has %d entries for %d base edges", len(owner), len(base.Edges))
	}
	keptCount := len(base.Edges) - len(d.Deletes)
	if keptCount < 0 || len(evolved.Edges) != keptCount+len(d.Inserts) {
		return nil, fmt.Errorf("evolved graph has %d edges, delta implies %d", len(evolved.Edges), keptCount+len(d.Inserts))
	}
	out := make([]engine.Machine, len(evolved.Edges))
	survivors := evolved.Edges[:keptCount]
	var skipped, deleted uint64
	j := 0
	for i, e := range base.Edges {
		if j < len(survivors) && e == survivors[j] {
			out[j] = owner[i]
			j++
			continue
		}
		skipped += pairHash(e)
	}
	for _, e := range d.Deletes {
		deleted += pairHash(e)
	}
	if j != keptCount || skipped != deleted {
		return nil, fmt.Errorf("evolved graph's first %d edges are not base's edges minus the deletes, in stream order", keptCount)
	}
	return out, nil
}

// pairHash is one term of carrySurvivors' order-free pair multiset sum.
func pairHash(e graph.Edge) uint64 {
	return rng.Hash64(uint64(e.Src)<<32 | uint64(e.Dst))
}

// Amend implements Amender. RandomHash owners are pure per-edge hashes, so
// surviving owners are already what a full re-ingress would produce and only
// the inserts need hashing — the result is bit-identical to Partition on the
// evolved graph.
func (rh *RandomHash) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	out, err := carrySurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	for i := len(base.Edges) - len(d.Deletes); i < len(out); i++ {
		out[i] = pk.pick(edgeHash(seed, evolved.Edges[i]))
	}
	return out, nil
}

// Amend implements Amender. A Hybrid owner depends on its edge, the seed and
// the destination's degree class, so surviving owners stay valid except where
// the delta moved a destination across the threshold; those edges (usually
// none) and the inserts are re-hashed, and the result is bit-identical to
// Partition on the evolved graph.
func (h *Hybrid) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	out, err := carrySurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	evolvedIn := evolved.InDegreesParallel()
	defer graph.ReleaseDegrees(evolvedIn)
	hash := func(e graph.Edge) engine.Machine {
		if evolvedIn[e.Dst] > h.Threshold {
			return pk.pick(vertexHash(seed+1, e.Src))
		}
		return pk.pick(vertexHash(seed, e.Dst))
	}
	keptCount := len(base.Edges) - len(d.Deletes)
	if flips := degreeFlips(d, evolvedIn, h.Threshold); len(flips) > 0 {
		flipped := vertexMask(evolved.NumVertices, flips)
		par.Ranges(keptCount, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if e := evolved.Edges[i]; flipped[e.Dst] {
					out[i] = hash(e)
				}
			}
		})
	}
	for i := keptCount; i < len(out); i++ {
		out[i] = hash(evolved.Edges[i])
	}
	return out, nil
}

// degreeFlips returns, in no particular order, the evolved vertices whose
// in-degree the delta moved across the high-degree threshold. Only a delta
// endpoint can change in-degree, so each destination's base in-degree is its
// evolved one minus the inserts into it plus the deletes from it; no base
// scan is needed. A vertex past the evolved vertex space (dropped by a
// shrink) has no evolved edges and is skipped; a vertex past the base space
// has base in-degree 0, which the same arithmetic yields. The deletes must be
// the edges Apply removed, which the callers' survivor checks establish.
func degreeFlips(d *graph.Delta, evolvedIn []int32, threshold int32) []graph.VertexID {
	net := make(map[graph.VertexID]int32, d.Size())
	for _, e := range d.Inserts {
		net[e.Dst]++
	}
	for _, e := range d.Deletes {
		net[e.Dst]--
	}
	var flips []graph.VertexID
	for v, change := range net {
		if int(v) >= len(evolvedIn) {
			continue
		}
		now := evolvedIn[v]
		if (now-change > threshold) != (now > threshold) {
			flips = append(flips, v)
		}
	}
	return flips
}

// vertexMask marks vs in a per-vertex mask over n vertices.
func vertexMask(n int, vs []graph.VertexID) []bool {
	mask := make([]bool, n)
	for _, v := range vs {
		mask[v] = true
	}
	return mask
}

// Amend implements Amender. The surviving owners keep their machines; the
// replica masks and loads they imply are rebuilt exactly as a stream over the
// survivors would leave them, and the inserts then continue that stream
// through the same greedy rule as Partition. Deleted edges' mirrors and load
// are genuinely forgotten — the rebuilt state reflects only what survives.
func (ob *Oblivious) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	kept, err := amendSurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	m := len(shares)
	placed := make([]uint64, evolved.NumVertices)
	load := make([]int64, m)
	for i, o := range kept {
		e := evolved.Edges[i]
		placed[e.Src] |= 1 << uint(o)
		placed[e.Dst] |= 1 << uint(o)
		load[o]++
	}
	allMask := uint64(1)<<uint(m) - 1
	for _, e := range evolved.Edges[len(kept):] {
		candidates := obliviousCandidates(placed[e.Src], placed[e.Dst], allMask)
		best := int32(-1)
		bestScore := 0.0
		for mask := candidates; mask != 0; mask &= mask - 1 {
			p := int32(bits.TrailingZeros64(mask))
			score := float64(load[p]) / shares[p]
			if best == -1 || score < bestScore {
				best, bestScore = p, score
			}
		}
		kept = append(kept, engine.Machine(best))
		load[best]++
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return kept, nil
}

// Amend implements Amender. Like Oblivious: replica masks, loads and partial
// degrees are rebuilt from the survivors, and the inserts continue the HDRF
// stream — scored at their evolved edge indices (so tie-breaking matches what
// a full ingress would hash for the tail) with loads normalized against the
// evolved edge count.
func (h *HDRF) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	kept, err := amendSurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	m := len(shares)
	placed := make([]uint64, evolved.NumVertices)
	partial := make([]int32, evolved.NumVertices)
	rawLoad := make([]int64, m)
	load := make([]float64, m)
	denom := float64(len(evolved.Edges) + 1)
	for i, o := range kept {
		e := evolved.Edges[i]
		placed[e.Src] |= 1 << uint(o)
		placed[e.Dst] |= 1 << uint(o)
		partial[e.Src]++
		partial[e.Dst]++
		rawLoad[o]++
	}
	for p := 0; p < m; p++ {
		load[p] = float64(rawLoad[p]) / (shares[p] * denom)
	}
	for i := len(kept); i < len(evolved.Edges); i++ {
		e := evolved.Edges[i]
		partial[e.Src]++
		partial[e.Dst]++
		du, dv := float64(partial[e.Src]), float64(partial[e.Dst])
		thetaU := du / (du + dv)
		gU, gV := 1+(1-thetaU), 1+thetaU

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
				rep += gU
			}
			if placed[e.Dst]&bit != 0 {
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
		kept = append(kept, best)
		rawLoad[best]++
		load[best] = float64(rawLoad[best]) / (shares[best] * denom)
		placed[e.Src] |= 1 << uint(best)
		placed[e.Dst] |= 1 << uint(best)
	}
	return kept, nil
}

// Amend implements Amender. Ginger's owner vector is a pure edge scan over
// its refined per-vertex assignment, so amendment recovers that assignment
// from the surviving owners (every in-edge of a low-degree destination
// carries its machine), hash-seeds the vertices it cannot recover, re-runs
// the Fennel refinement over only the vertices the delta disturbed, and
// replays the final scan.
func (gp *Ginger) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	kept, err := amendSurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	inDeg := evolved.InDegreesParallel()
	defer graph.ReleaseDegrees(inDeg)
	flipped := vertexMask(evolved.NumVertices, degreeFlips(d, inDeg, gp.Threshold))

	// Recover assign from surviving low→low edges: the refined placement
	// grouped each low-degree destination's in-edges on one machine.
	assign := make([]engine.Machine, evolved.NumVertices)
	recovered := make([]bool, evolved.NumVertices)
	for i, o := range kept {
		dst := evolved.Edges[i].Dst
		if !flipped[dst] && inDeg[dst] <= gp.Threshold {
			assign[dst] = o
			recovered[dst] = true
		}
	}
	for v := range assign {
		if !recovered[v] {
			assign[v] = pk.pick(vertexHash(seed, graph.VertexID(v)))
		}
	}

	// Re-refine exactly the disturbed vertices: endpoints the delta touched,
	// degree-class flips, and unrecovered vertices that actually feed the
	// edge scan.
	subset := map[graph.VertexID]bool{}
	for _, v := range d.Touched() {
		if int(v) < evolved.NumVertices && inDeg[v] <= gp.Threshold {
			subset[v] = true
		}
	}
	for v := range assign {
		if inDeg[v] <= gp.Threshold && (flipped[v] || (!recovered[v] && inDeg[v] > 0)) {
			subset[graph.VertexID(v)] = true
		}
	}
	gp.refineSubset(evolved, inDeg, assign, shares, subset)

	keptCount := len(kept)
	kept = kept[:len(evolved.Edges)]
	par.Ranges(len(evolved.Edges), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := evolved.Edges[i]
			if i < keptCount && !flipped[e.Dst] && inDeg[e.Dst] <= gp.Threshold && !subset[e.Dst] {
				// Surviving low-degree edge whose assignment didn't move.
				continue
			}
			if inDeg[e.Dst] > gp.Threshold {
				kept[i] = pk.pick(vertexHash(seed+1, e.Src))
			} else {
				kept[i] = assign[e.Dst]
			}
		}
	})
	return kept, nil
}

// refineSubset runs the Fennel-style refinement sweep of refine over
// only the given vertices (in ID order, as the full sweep visits them),
// against loads accumulated from the complete assignment.
func (gp *Ginger) refineSubset(g *graph.Graph, inDeg []int32, assign []engine.Machine, shares []float64, subset map[graph.VertexID]bool) {
	if len(subset) == 0 {
		return
	}
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

	order := make([]int, 0, len(subset))
	for v := range subset {
		order = append(order, int(v))
	}
	sort.Ints(order)

	in := gingerInCSRPool.Get().(*graph.CSR)
	defer gingerInCSRPool.Put(in)
	g.InCSRInto(in)
	neighborCount := make([]float64, m)
	for _, v := range order {
		cur := assign[v]
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
