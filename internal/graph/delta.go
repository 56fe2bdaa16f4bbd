package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// Delta is a timestamped batch of edge mutations against a base graph. It is
// the unit of evolution for streaming/evolving-graph workloads: long-lived
// graphs drift between analyses, and re-analyzing an evolved version should
// cost work proportional to the batch, not the graph — incremental partition
// amendment (partition.Amender), content-key revalidation
// (workload.EvolveFingerprint) and delta-based re-execution (apps.Resume*)
// all consume this type.
//
// Semantics: Apply removes, for every entry of Deletes, the first remaining
// occurrence of that (Src, Dst) pair from the base edge list (so duplicate
// edges — which the partitioners deliberately co-locate — are deleted one
// occurrence at a time), compacts the survivors in stream order, and appends
// Inserts at the tail. Appending preserves the streaming partitioners' view
// of the world: an inserted edge is a continuation of the ingress stream,
// which is exactly the state Amend resumes from.
type Delta struct {
	// Time is the batch's logical timestamp. Apply requires it to be strictly
	// greater than zero so versions are orderable; it also salts nothing —
	// identity is content-based (see Fingerprint).
	Time uint64
	// Inserts are appended to the edge list in order.
	Inserts []Edge
	// Deletes each remove the first remaining occurrence of their (Src, Dst)
	// pair from the base edge list; a delete with no occurrence left errors.
	Deletes []Edge
	// InsertWeights optionally carries per-insert weights (len ==
	// len(Inserts)). Required when the base graph is weighted.
	InsertWeights []float32
	// DeleteWeights optionally disambiguates deletes (len == len(Deletes)):
	// when non-nil, each delete claims the first remaining occurrence of its
	// (Src, Dst, weight) triple instead of the bare pair — needed to undo an
	// insertion exactly when the same pair already exists at another weight
	// (the Inverse test oracle in delta_test.go sets it).
	DeleteWeights []float32
	// NumVertices, when non-zero, is the evolved graph's vertex count
	// (growing or shrinking the ID space). Zero keeps the base count. Apply
	// validates that every surviving and inserted edge fits the new space.
	NumVertices int
}

// Size returns the number of mutations in the batch.
func (d *Delta) Size() int { return len(d.Inserts) + len(d.Deletes) }

// vertexCount resolves the evolved graph's vertex count.
func (d *Delta) vertexCount(base *Graph) int {
	if d.NumVertices > 0 {
		return d.NumVertices
	}
	return base.NumVertices
}

// Validate checks the batch against its base graph: a positive timestamp,
// endpoints inside the evolved vertex space, no self-loops, and a weight
// column consistent with the base graph's.
func (d *Delta) Validate(base *Graph) error {
	if d.Time == 0 {
		return fmt.Errorf("delta: zero timestamp (versions must be orderable)")
	}
	if d.NumVertices < 0 {
		return fmt.Errorf("delta: negative vertex count %d", d.NumVertices)
	}
	n := VertexID(d.vertexCount(base))
	for i, e := range d.Inserts {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("delta: insert %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("delta: insert %d is a self-loop at vertex %d", i, e.Src)
		}
	}
	if d.InsertWeights != nil && len(d.InsertWeights) != len(d.Inserts) {
		return fmt.Errorf("delta: %d insert weights for %d inserts", len(d.InsertWeights), len(d.Inserts))
	}
	if d.DeleteWeights != nil && len(d.DeleteWeights) != len(d.Deletes) {
		return fmt.Errorf("delta: %d delete weights for %d deletes", len(d.DeleteWeights), len(d.Deletes))
	}
	if base.Weights != nil && len(d.Inserts) > 0 && d.InsertWeights == nil {
		return fmt.Errorf("delta: base graph %q is weighted, inserts need InsertWeights", base.Name)
	}
	return nil
}

// DeletedIndices resolves Deletes against the base edge list: for each delete
// the index of the first not-yet-claimed occurrence of its (Src, Dst) pair
// (or (Src, Dst, weight) triple when DeleteWeights is set), returned in
// ascending index order. It errors when any delete has no match left —
// deleting an absent edge is a versioning bug, not a no-op.
//
// The scan over the base edges is one filter test per edge: a one-hash bitmap
// over the deletes' (Src, Dst) pairs, at least 64 bits per delete, so the
// multiset of wanted occurrences is consulted for the edges that repeat a
// deleted pair plus a false-positive share of the rest near 1/64. A batch
// costs O(|E|) cheap tests plus map work proportional to how often its pairs
// occur. The map stays the authority: it keeps float32 == weight matching
// for the triple form.
func (d *Delta) DeletedIndices(base *Graph) ([]int, error) {
	if len(d.Deletes) == 0 {
		return nil, nil
	}
	type occurrence struct {
		e Edge
		w float32
	}
	key := func(e Edge, w float32) occurrence {
		if d.DeleteWeights == nil {
			// Pair-only matching: collapse the weight dimension.
			return occurrence{e: e}
		}
		return occurrence{e: e, w: w}
	}
	weight := func(j int) float32 {
		if d.DeleteWeights == nil {
			return 0
		}
		return d.DeleteWeights[j]
	}
	missing := func(e Edge) error {
		return fmt.Errorf("delta: delete (%d->%d) has no remaining occurrence in graph %q", e.Src, e.Dst, base.Name)
	}
	n := VertexID(base.NumVertices)
	want := make(map[occurrence]int, len(d.Deletes))
	// Fibonacci hashing: the top logBits bits of the pair times 2^64/φ.
	logBits := bits.Len(uint(64*len(d.Deletes) - 1))
	shift := 64 - logBits
	slot := func(e Edge) uint64 {
		return (uint64(e.Src)<<32 | uint64(e.Dst)) * 0x9e3779b97f4a7c15 >> shift
	}
	filter := make([]uint64, 1<<logBits/64)
	for j, e := range d.Deletes {
		if e.Src >= n || e.Dst >= n {
			// No base edge reaches outside the base vertex space.
			return nil, missing(e)
		}
		want[key(e, weight(j))]++
		s := slot(e)
		filter[s>>6] |= 1 << (s & 63)
	}
	idx := make([]int, 0, len(d.Deletes))
	for i, e := range base.Edges {
		if s := slot(e); filter[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		k := key(e, base.Weight(i))
		if want[k] > 0 {
			want[k]--
			idx = append(idx, i)
			if len(idx) == len(d.Deletes) {
				break
			}
		}
	}
	if len(idx) != len(d.Deletes) {
		// Name the first delete, in batch order, that found nothing to claim.
		for j, e := range d.Deletes {
			if want[key(e, weight(j))] > 0 {
				return nil, missing(e)
			}
		}
	}
	return idx, nil
}

// Apply materializes the evolved graph: survivors in stream order, inserts at
// the tail, weights carried through. The base graph is not modified. The
// evolved graph's name carries the version timestamp so experiment tables can
// tell versions apart.
func (d *Delta) Apply(base *Graph) (*Graph, error) {
	if err := d.Validate(base); err != nil {
		return nil, err
	}
	deleted, err := d.DeletedIndices(base)
	if err != nil {
		return nil, err
	}
	n := d.vertexCount(base)

	kept := len(base.Edges) - len(deleted)
	edges := make([]Edge, 0, kept+len(d.Inserts))
	weighted := base.Weights != nil || d.InsertWeights != nil
	var weights []float32
	if weighted {
		weights = make([]float32, 0, kept+len(d.Inserts))
	}
	// Survivors are copied a run at a time, between consecutive deletes.
	keep := func(lo, hi int) {
		edges = append(edges, base.Edges[lo:hi]...)
		if base.Weights != nil {
			weights = append(weights, base.Weights[lo:hi]...)
		}
	}
	lo := 0
	for _, i := range deleted {
		keep(lo, i)
		lo = i + 1
	}
	keep(lo, len(base.Edges))
	edges = append(edges, d.Inserts...)
	if weighted {
		if base.Weights == nil {
			weights = appendOnes(weights, kept)
		}
		if d.InsertWeights != nil {
			weights = append(weights, d.InsertWeights...)
		} else {
			weights = appendOnes(weights, len(d.Inserts))
		}
	}

	evolved := &Graph{
		Name:        fmt.Sprintf("%s@t%d", base.Name, d.Time),
		NumVertices: n,
		Edges:       edges,
		Weights:     weights,
		Alpha:       base.Alpha,
	}
	if err := evolved.Validate(); err != nil {
		// Shrinking NumVertices below a surviving endpoint lands here.
		return nil, fmt.Errorf("delta: evolved graph invalid: %w", err)
	}
	return evolved, nil
}

// appendOnes appends n unit weights.
func appendOnes(w []float32, n int) []float32 {
	for range n {
		w = append(w, 1)
	}
	return w
}

// Touched returns the sorted distinct vertices incident to the batch's
// mutations — the seed set delta-based re-execution activates.
func (d *Delta) Touched() []VertexID {
	out := make([]VertexID, 0, 2*d.Size())
	for _, e := range d.Inserts {
		out = append(out, e.Src, e.Dst)
	}
	for _, e := range d.Deletes {
		out = append(out, e.Src, e.Dst)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
