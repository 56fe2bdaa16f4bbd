package gen

import (
	"fmt"

	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// DeltaSpec describes one random evolution step of a graph: how many edges
// churn and how they split between deletions of existing edges and fresh
// insertions. Counts are clamped to what the base graph can give up.
type DeltaSpec struct {
	// Inserts and Deletes are the mutation counts.
	Inserts, Deletes int
	// Time is the batch's logical timestamp (must be > 0).
	Time uint64
}

// RandomDelta draws a deterministic mutation batch against base: Deletes
// distinct existing edge occurrences chosen uniformly, and Inserts fresh
// non-self-loop edges whose endpoints follow the same skew as the base graph
// (a uniformly chosen existing edge's source, rewired to a uniform target) —
// evolution that preferentially touches hubs, as real graph churn does.
func RandomDelta(base *graph.Graph, spec DeltaSpec, seed uint64) (*graph.Delta, error) {
	if spec.Time == 0 {
		return nil, fmt.Errorf("gen: delta needs a positive timestamp")
	}
	if spec.Inserts < 0 || spec.Deletes < 0 {
		return nil, fmt.Errorf("gen: negative mutation counts (%d inserts, %d deletes)", spec.Inserts, spec.Deletes)
	}
	if base.NumVertices < 2 {
		return nil, fmt.Errorf("gen: base graph %q too small to evolve", base.Name)
	}
	src := rng.New(rng.Hash3(0x64656c74 /* "delt" */, seed, spec.Time))
	d := &graph.Delta{Time: spec.Time}

	nDel := spec.Deletes
	if nDel > len(base.Edges) {
		nDel = len(base.Edges)
	}
	if nDel > 0 {
		// Distinct occurrence indices via a partial Fisher–Yates over the
		// edge index space.
		idx := src.Perm(len(base.Edges))[:nDel]
		d.Deletes = make([]graph.Edge, nDel)
		for i, ei := range idx {
			d.Deletes[i] = base.Edges[ei]
		}
	}

	if spec.Inserts > 0 {
		d.Inserts = make([]graph.Edge, 0, spec.Inserts)
		for len(d.Inserts) < spec.Inserts {
			var u graph.VertexID
			if len(base.Edges) > 0 {
				u = base.Edges[src.Intn(len(base.Edges))].Src
			} else {
				u = graph.VertexID(src.Intn(base.NumVertices))
			}
			v := graph.VertexID(src.Intn(base.NumVertices))
			if u == v {
				continue
			}
			d.Inserts = append(d.Inserts, graph.Edge{Src: u, Dst: v})
		}
	}
	return d, nil
}
