package apps

import (
	"fmt"
	"math"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// ConnectedComponents labels every vertex with the smallest vertex ID in its
// (weakly) connected component by synchronous label propagation, the
// PowerGraph formulation the paper benchmarks ("counts connected components
// in a given graph, as well as the number of vertices and edges in each").
type ConnectedComponents struct {
	// MaxIters caps propagation; label propagation needs at most the graph
	// diameter plus one supersteps.
	MaxIters int
}

// NewConnectedComponents returns the default configuration.
func NewConnectedComponents() *ConnectedComponents {
	return &ConnectedComponents{MaxIters: 1000}
}

// Name implements App.
func (cc *ConnectedComponents) Name() string { return "connected_components" }

// Coeffs implements engine.Program. Label propagation is lighter than
// PageRank per edge (integer min instead of float math) but still walks
// remote labels through random indices.
func (cc *ConnectedComponents) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    70,
		BytesPerGather:  110,
		OpsPerApply:     80,
		BytesPerApply:   240,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.03,
		StepOverheadOps: 2e3,
		AccumBytes:      12,
		ValueBytes:      12,
	}
}

// Direction implements engine.Program: components are over the undirected
// structure, so labels flow both ways.
func (cc *ConnectedComponents) Direction() engine.Direction { return engine.GatherBoth }

// ApplyAll implements engine.Program: only signalled vertices recompute.
func (cc *ConnectedComponents) ApplyAll() bool { return false }

// MaxSupersteps implements engine.Program.
func (cc *ConnectedComponents) MaxSupersteps() int { return cc.MaxIters }

// Init implements engine.Program: every vertex starts as its own label.
func (cc *ConnectedComponents) Init(vals []uint32, g *graph.Graph) {
	for v := range vals {
		vals[v] = uint32(v)
	}
}

// Fold implements engine.Program: keep the smallest label among the active
// sources. min(MaxUint32, x) is x, so an empty accumulator starts from the
// identity, and an inactive source is masked to that identity rather than
// branched around (see activeBit).
func (cc *ConnectedComponents) Fold(acc uint32, has bool, vals []uint32, srcs []graph.VertexID, act []bool) (uint32, int32) {
	best := uint32(math.MaxUint32)
	if has {
		best = acc
	}
	var n uint32
	if act == nil {
		n = uint32(len(srcs))
		for _, s := range srcs {
			best = min(best, vals[s])
		}
	} else {
		for _, s := range srcs {
			on := activeBit(act[s])
			best = min(best, vals[s]|(on-1))
			n += on
		}
	}
	if n == 0 {
		best = acc
	}
	return best, int32(n)
}

// Apply implements engine.Program: a vertex takes a smaller gathered label
// and signals.
func (cc *ConnectedComponents) Apply(vs []graph.VertexID, vals []uint32, acc []uint32, has []bool, rt *engine.Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		if has[v] && acc[v] < vals[v] {
			vals[v] = acc[v]
			signal = append(signal, v)
		}
	}
	return signal
}

// Run implements App. The Output is a Components summary.
func (cc *ConnectedComponents) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return cc.run(pl, cl, engine.Options{})
}

func (cc *ConnectedComponents) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	return runGAS(cc, pl, cl, opts, SummarizeComponents)
}

// Components summarizes a labelling: the number of components and the size
// of the largest one.
type Components struct {
	Labels  []uint32
	Count   int
	Largest int
}

// SummarizeComponents counts distinct labels and the largest component. A
// label is the ID of a vertex of the labelled graph, so sizes are counted in a
// slice indexed by label; a label that is no such ID is a bug upstream (Resume
// rejects a prior labelling that would produce one) and panics.
func SummarizeComponents(labels []uint32) Components {
	sizes := make([]int32, len(labels))
	for _, l := range labels {
		if int(l) >= len(sizes) {
			panic(fmt.Sprintf("apps: component label %d is not a vertex of a %d-vertex graph", l, len(labels)))
		}
		sizes[l]++
	}
	count, largest := 0, int32(0)
	for _, s := range sizes {
		if s > 0 {
			count++
		}
		largest = max(largest, s)
	}
	return Components{Labels: labels, Count: count, Largest: int(largest)}
}
