package partition

import (
	"fmt"

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
//     surviving owners and runs the same stream as Partition over only the
//     inserts, against state rebuilt from the survivors. A full re-ingress
//     would instead replay every edge with the deleted ones absent, so owners
//     differ — but the balance objective is maintained live during the
//     continuation, so the amended imbalance stays within the envelope the
//     differential tests document (10% relative + 0.05 absolute over full
//     re-ingress). An Oblivious amendment of an insert-only delta is
//     bit-identical to Partition on the evolved graph: its loads are
//     unnormalized counts, so the base's stream is a prefix of the evolved
//     one. HDRF normalizes loads by the total edge count, which the inserts
//     change, so it has no such law.
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
	if err := checkAmendInputs(base, owner, evolved); err != nil {
		return nil, err
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
	if err := checkAmendInputs(base, owner, evolved); err != nil {
		return nil, err
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

// checkAmendInputs is the survivor helpers' shared check: an owner per base
// edge, and an evolved graph in the base's vertex space, as Delta.Apply
// leaves it.
func checkAmendInputs(base *graph.Graph, owner []engine.Machine, evolved *graph.Graph) error {
	if len(owner) != len(base.Edges) {
		return fmt.Errorf("owner vector has %d entries for %d base edges", len(owner), len(base.Edges))
	}
	if evolved.NumVertices != base.NumVertices {
		return fmt.Errorf("evolved graph has %d vertices, base %d", evolved.NumVertices, base.NumVertices)
	}
	return nil
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
// scan is needed. The inserts must be those Apply validated and the deletes
// the edges it removed, which the callers' survivor checks establish, so
// every endpoint lies in the vertex space.
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

// Amend implements Amender. The surviving owners keep their machines, and
// obliviousStream rebuilds the replica masks and loads they imply exactly as
// a stream over the survivors would leave them, then continues that stream
// through the inserts. Deleted edges' mirrors and load are genuinely
// forgotten — the rebuilt state reflects only what survives.
func (ob *Oblivious) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	kept, err := amendSurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	return obliviousStream(evolved, shares, kept[:len(evolved.Edges)], len(kept)), nil
}

// Amend implements Amender. Like Oblivious: the HDRF stream rebuilds replica
// masks, loads and partial degrees from the survivors and continues through
// the inserts, scored at their evolved edge indices (so tie-breaking matches
// what a full ingress would hash for the tail) with loads normalized against
// the evolved edge count.
func (h *HDRF) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	kept, err := amendSurvivors(base, owner, d, evolved)
	if err != nil {
		return nil, err
	}
	return h.stream(evolved, shares, seed, kept[:len(evolved.Edges)], len(kept)), nil
}

// Amend implements Amender. Ginger's owner vector is a pure edge scan over
// its refined per-vertex assignment, so amendment recovers that assignment
// from the surviving owners (every in-edge of a low-degree destination
// carries its machine), hash-seeds the vertices it cannot recover, re-runs
// the Fennel refinement over only the vertices the delta disturbed, and
// replays Partition's final scan. The scan rewrites every owner; a survivor
// whose destination was not disturbed gets the machine it already had.
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

	// Re-refine exactly the disturbed low-degree vertices, in ascending
	// order: endpoints the delta touched, degree-class flips, and unrecovered
	// vertices that actually feed the edge scan.
	disturbed := flipped // the flips, joined in place by the touched endpoints
	for _, v := range d.Touched() {
		disturbed[v] = true
	}
	var subset []graph.VertexID
	for v := range assign {
		if !recovered[v] {
			assign[v] = pk.pick(vertexHash(seed, graph.VertexID(v)))
		}
		if inDeg[v] <= gp.Threshold && (disturbed[v] || (!recovered[v] && inDeg[v] > 0)) {
			subset = append(subset, graph.VertexID(v))
		}
	}
	if len(subset) > 0 {
		gp.refine(evolved, shares, inDeg, assign, subset)
	}

	kept = kept[:len(evolved.Edges)]
	gp.scan(evolved, pk, seed, inDeg, assign, kept)
	return kept, nil
}
