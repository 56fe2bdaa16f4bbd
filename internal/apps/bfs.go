package apps

import (
	"math"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// BFS computes hop distances from a source vertex over the undirected
// structure. It is not one of the paper's four benchmarks; it demonstrates
// the claim that the profiling flow accepts any special-purpose application
// (Section III-B) and exercises frontier-style activation in the engine.
type BFS struct {
	// Source is the root vertex (validated against the graph at run time;
	// out-of-range roots return ErrSourceOutOfRange).
	Source graph.VertexID
	// MaxIters caps the superstep count.
	MaxIters int
}

// NewBFS returns a BFS from vertex 0.
func NewBFS() *BFS { return &BFS{Source: 0, MaxIters: 1000} }

// Name implements App.
func (b *BFS) Name() string { return "bfs" }

// Coeffs implements engine.Program: frontier expansion touches each edge at
// most a few times with integer work.
func (b *BFS) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    40,
		BytesPerGather:  240,
		OpsPerApply:     60,
		BytesPerApply:   200,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.03,
		StepOverheadOps: 2e3,
		AccumBytes:      12,
		ValueBytes:      12,
	}
}

// unreached marks vertices not yet visited.
const unreached = int32(-1)

// Direction implements engine.Program.
func (b *BFS) Direction() engine.Direction { return engine.GatherBoth }

// ApplyAll implements engine.Program.
func (b *BFS) ApplyAll() bool { return false }

// MaxSupersteps implements engine.Program.
func (b *BFS) MaxSupersteps() int { return b.MaxIters }

// Init implements engine.Program: the source at distance 0, everything else
// unreached.
func (b *BFS) Init(vals []int32, g *graph.Graph) {
	for v := range vals {
		vals[v] = unreached
	}
	if int(b.Source) < len(vals) {
		vals[b.Source] = 0
	}
}

// Fold implements engine.Program: a reached source offers distance+1 and the
// smallest offer is kept; an unreached one still counts as a gather but
// offers nothing, which an accumulator of unreached encodes. Compared as
// uint32, unreached (-1) is the largest value and no real distance reaches it,
// so one unsigned min covers both cases and unreached is its identity. The
// loop keeps the smallest distance itself and adds the hop once at the end;
// inactive sources are masked to the identity rather than branched around,
// and the tail's two tests — nothing reached, nothing folded — are selects
// (see activeBit).
func (b *BFS) Fold(acc int32, has bool, vals []int32, srcs []graph.VertexID, act []bool) (int32, int32) {
	nearest := uint32(math.MaxUint32)
	var n uint32
	if act == nil {
		n = uint32(len(srcs))
		for _, s := range srcs {
			nearest = min(nearest, uint32(vals[s]))
		}
	} else {
		for _, s := range srcs {
			on := activeBit(act[s])
			nearest = min(nearest, uint32(vals[s])|(on-1))
			n += on
		}
	}
	best := uint32(math.MaxUint32)
	if has {
		best = uint32(acc)
	}
	offer := nearest + 1
	if nearest == math.MaxUint32 {
		offer = nearest
	}
	best = min(best, offer)
	if n == 0 {
		best = uint32(acc)
	}
	return int32(best), int32(n)
}

// Apply implements engine.Program: a vertex takes a gathered distance that
// beats its own and signals. Compared as uint32 (see Fold), an accumulator of
// unreached beats nothing and every real distance beats unreached.
func (b *BFS) Apply(vs []graph.VertexID, vals []int32, acc []int32, has []bool, rt *engine.Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		if has[v] && uint32(acc[v]) < uint32(vals[v]) {
			vals[v] = acc[v]
			signal = append(signal, v)
		}
	}
	return signal
}

// Run implements App. The Output is the []int32 distance vector
// (-1 for unreachable vertices).
func (b *BFS) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return b.run(pl, cl, engine.Options{})
}

func (b *BFS) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	if err := validateSource(b.Name(), pl.G.NumVertices, b.Source); err != nil {
		return nil, err
	}
	return runGAS(b, pl, cl, opts, func(dists []int32) []int32 { return dists })
}
