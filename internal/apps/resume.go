package apps

import (
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// This file implements delta-based re-execution: after a graph.Delta evolves
// a base graph, re-analysis starts from the previous run's converged output
// instead of cold state, so the work scales with how much the batch disturbed
// the solution rather than with the graph. PageRank resumes from the prior
// rank vector (ApplyAll programs re-gather everything but converge in the few
// supersteps the perturbation needs); connected components resumes from the
// prior labelling with only the disturbed region active, via the engines'
// warm-start frontier (engine.Options.InitialActive).

// PageRankResume is PageRank warm-started from a prior rank vector. Vertices
// beyond a short prior vector start cold at rank 1. Convergence is
// tolerance-stopped, so resumed ranks are not bit-identical to a cold run on
// the evolved graph; both land within the same fixed-point envelope — each vertex's converged rank is within Tolerance/(1-Damping) of
// the true fixed point, so resumed and cold ranks agree per vertex to within
// twice that (the differential tests pin this bound).
type PageRankResume struct {
	PageRank
	// Prior is the base-graph run's rank vector (Result.Output).
	Prior []float64
}

// Resume returns pr warm-started from the prior rank vector.
func (pr *PageRank) Resume(prior []float64) *PageRankResume {
	return &PageRankResume{PageRank: *pr, Prior: prior}
}

// Name implements App.
func (r *PageRankResume) Name() string { return "pagerank_resume" }

// Init implements engine.Program: the prior rank where one exists, cold rank
// 1 otherwise; invOut always reflects the evolved graph's out-degrees.
func (r *PageRankResume) Init(vals []prState, g *graph.Graph) {
	r.PageRank.Init(vals, g)
	for v := range vals[:min(len(vals), len(r.Prior))] {
		vals[v].rank = r.Prior[v]
	}
}

// Run implements App. The Output is the []float64 rank vector.
func (r *PageRankResume) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return r.run(pl, cl, engine.Options{})
}

func (r *PageRankResume) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	return runGAS(r, pl, cl, opts, ranksOf)
}

// ConnectedComponentsResume is label propagation warm-started from a prior
// labelling. Deletions can split components, leaving prior labels too small
// for the evolved structure, so every vertex of a prior component incident to
// a deletion restarts at its own ID; everything else keeps its prior label.
// The seed frontier is exactly the reset vertices plus the insertion
// endpoints — every edge whose endpoint labels can initially disagree has a
// seeded endpoint, which is what label propagation needs to reach the new
// fixed point. Labels are exact integers with a unique fixed point, so the
// converged labelling is bit-identical to a cold run on the evolved graph;
// only the superstep count differs.
type ConnectedComponentsResume struct {
	ConnectedComponents
	// Prior is the base-graph labelling (Components.Labels).
	Prior []uint32
	// flags holds one byte of flag bits per evolved vertex; Init reads
	// flagReset.
	flags []uint8
	seed  []graph.VertexID
	// err is set when Prior is no labelling of the evolved graph; run
	// returns it instead of starting the engine.
	err error
}

// The bits of ConnectedComponentsResume.flags. flagResetLabel is indexed by
// label (a label is a vertex ID), the others by vertex.
const (
	flagResetLabel uint8 = 1 << iota // a deletion touches the prior component with this label
	flagReset                        // the vertex restarts at its own ID
	flagSeeded                       // the vertex is in the seed frontier
)

// Resume returns cc warm-started from the prior labelling for the evolved
// graph d produced. Vertices beyond the prior labelling start at their own ID
// like a cold run.
func (cc *ConnectedComponents) Resume(prior []uint32, d *graph.Delta, evolved *graph.Graph) *ConnectedComponentsResume {
	r := &ConnectedComponentsResume{ConnectedComponents: *cc, Prior: prior}
	n := evolved.NumVertices

	// Labels of prior components that a deletion touches: all their members
	// reset and reseed, since a split strands too-small labels anywhere in
	// the component. A label is a vertex ID, so its mark is a bit of the
	// per-vertex flag bytes; the member scan below is where a label that is
	// no vertex of the evolved graph gets rejected.
	r.flags = make([]uint8, n)
	for _, e := range d.Deletes {
		for _, v := range [2]graph.VertexID{e.Src, e.Dst} {
			if int(v) < len(prior) && int(prior[v]) < n {
				r.flags[prior[v]] |= flagResetLabel
			}
		}
	}

	// The reset vertices are counted as they are marked, so the seed is
	// allocated once at its bound: every reset vertex and both endpoints of
	// every insertion.
	resets := 0
	for v := 0; v < n && v < len(prior); v++ {
		if int(prior[v]) >= n {
			r.err = fmt.Errorf("apps: %s: prior label %d of vertex %d is not a vertex of the %d-vertex evolved graph", r.Name(), prior[v], v, n)
			return r
		}
		if r.flags[prior[v]]&flagResetLabel != 0 {
			r.flags[v] |= flagReset
			resets++
		}
	}
	r.seed = make([]graph.VertexID, 0, resets+2*len(d.Inserts))
	for v, f := range r.flags {
		if f&flagReset != 0 {
			r.seed = append(r.seed, graph.VertexID(v))
		}
	}
	for _, e := range d.Inserts {
		for _, v := range [2]graph.VertexID{e.Src, e.Dst} {
			if int(v) < n && r.flags[v]&(flagReset|flagSeeded) == 0 {
				r.flags[v] |= flagSeeded
				r.seed = append(r.seed, v)
			}
		}
	}
	return r
}

// Name implements App.
func (r *ConnectedComponentsResume) Name() string { return "connected_components_resume" }

// Init implements engine.Program: the prior label unless the vertex was
// reset or lies beyond the prior labelling, its own ID otherwise.
func (r *ConnectedComponentsResume) Init(vals []uint32, g *graph.Graph) {
	for v := range vals {
		if v < len(r.Prior) && r.flags[v]&flagReset == 0 {
			vals[v] = r.Prior[v]
		} else {
			vals[v] = uint32(v)
		}
	}
}

// Seed returns the warm-start frontier (for callers composing their own
// engine.Options).
func (r *ConnectedComponentsResume) Seed() []graph.VertexID {
	if r.seed == nil {
		return []graph.VertexID{}
	}
	return r.seed
}

// Run implements App. The Output is a Components summary.
func (r *ConnectedComponentsResume) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return r.run(pl, cl, engine.Options{})
}

// run installs the warm-start seed unless opts already carries one. A prior
// labelling Resume rejected fails here, before the engine starts.
func (r *ConnectedComponentsResume) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	if r.err != nil {
		return nil, r.err
	}
	if opts.InitialActive == nil {
		opts.InitialActive = r.Seed()
	}
	return runGAS(r, pl, cl, opts, SummarizeComponents)
}
