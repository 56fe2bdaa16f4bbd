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
// which is exactly the state Amend resumes from. The evolved graph keeps the
// base's vertex space.
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
}

// Size returns the number of mutations in the batch.
func (d *Delta) Size() int { return len(d.Inserts) + len(d.Deletes) }

// Validate checks the batch against its base graph: a positive timestamp,
// and inserts that are no self-loops and whose endpoints lie in the base's
// vertex space.
func (d *Delta) Validate(base *Graph) error {
	if d.Time == 0 {
		return fmt.Errorf("delta: zero timestamp (versions must be orderable)")
	}
	n := VertexID(base.NumVertices)
	for i, e := range d.Inserts {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("delta: insert %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("delta: insert %d is a self-loop at vertex %d", i, e.Src)
		}
	}
	return nil
}

// DeletedIndices resolves Deletes against the base edge list: for each delete
// the index of the first not-yet-claimed occurrence of its (Src, Dst) pair,
// returned in ascending index order. It errors when any delete has no match
// left — deleting an absent edge is a versioning bug, not a no-op.
//
// The scan over the base edges is one filter test per edge: a one-hash bitmap
// over the deletes' pairs, at least 64 bits per delete, so the multiset of
// wanted occurrences is consulted for the edges that repeat a deleted pair
// plus a false-positive share of the rest near 1/64. A batch costs O(|E|)
// cheap tests plus map work proportional to how often its pairs occur.
func (d *Delta) DeletedIndices(base *Graph) ([]int, error) {
	if len(d.Deletes) == 0 {
		return nil, nil
	}
	missing := func(e Edge) error {
		return fmt.Errorf("delta: delete (%d->%d) has no remaining occurrence in graph %q", e.Src, e.Dst, base.Name)
	}
	n := VertexID(base.NumVertices)
	want := make(map[Edge]int, len(d.Deletes))
	// Fibonacci hashing: the top logBits bits of the pair times 2^64/φ.
	logBits := bits.Len(uint(64*len(d.Deletes) - 1))
	shift := 64 - logBits
	slot := func(e Edge) uint64 {
		return (uint64(e.Src)<<32 | uint64(e.Dst)) * 0x9e3779b97f4a7c15 >> shift
	}
	filter := make([]uint64, 1<<logBits/64)
	for _, e := range d.Deletes {
		if e.Src >= n || e.Dst >= n {
			// No base edge reaches outside the base vertex space.
			return nil, missing(e)
		}
		want[e]++
		s := slot(e)
		filter[s>>6] |= 1 << (s & 63)
	}
	idx := make([]int, 0, len(d.Deletes))
	for i, e := range base.Edges {
		if s := slot(e); filter[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		if want[e] > 0 {
			want[e]--
			idx = append(idx, i)
			if len(idx) == len(d.Deletes) {
				break
			}
		}
	}
	if len(idx) != len(d.Deletes) {
		// Name the first delete, in batch order, that found nothing to claim.
		for _, e := range d.Deletes {
			if want[e] > 0 {
				return nil, missing(e)
			}
		}
	}
	return idx, nil
}

// Apply materializes the evolved graph: survivors in stream order, inserts at
// the tail. The base graph is not modified. The evolved graph's name carries
// the version timestamp so experiment tables can tell versions apart.
func (d *Delta) Apply(base *Graph) (*Graph, error) {
	if err := d.Validate(base); err != nil {
		return nil, err
	}
	deleted, err := d.DeletedIndices(base)
	if err != nil {
		return nil, err
	}

	size := len(base.Edges) - len(deleted) + len(d.Inserts)
	edges := make([]Edge, 0, size)
	// Survivors are copied a run at a time, between consecutive deletes.
	lo := 0
	for _, i := range deleted {
		edges = append(edges, base.Edges[lo:i]...)
		lo = i + 1
	}
	edges = append(edges, base.Edges[lo:]...)
	edges = append(edges, d.Inserts...)

	evolved := &Graph{
		Name:        fmt.Sprintf("%s@t%d", base.Name, d.Time),
		NumVertices: base.NumVertices,
		Edges:       edges,
		Alpha:       base.Alpha,
	}
	if err := evolved.Validate(); err != nil {
		// A base graph read from a file may itself be malformed.
		return nil, fmt.Errorf("delta: evolved graph invalid: %w", err)
	}
	return evolved, nil
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
