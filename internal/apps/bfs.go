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

// Init implements engine.Program.
func (b *BFS) Init(v graph.VertexID, outDeg, inDeg int32) int32 {
	if v == b.Source {
		return 0
	}
	return unreached
}

// Fold implements engine.Program: a reached source offers distance+1 and the
// smallest offer is kept; an unreached one still counts as a gather but
// offers nothing, which an accumulator of unreached encodes. Compared as
// uint32, unreached (-1) is the largest value and no real offer reaches it,
// so one unsigned min covers both cases and unreached is its identity.
func (b *BFS) Fold(acc int32, has bool, vals []int32, srcs []graph.VertexID, act []bool) (int32, int32) {
	best := uint32(math.MaxUint32)
	if has {
		best = uint32(acc)
	}
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		if d := vals[s]; d != unreached {
			best = min(best, uint32(d)+1)
		}
		n++
	}
	if n == 0 {
		return acc, 0
	}
	return int32(best), n
}

// Apply implements engine.Program.
func (b *BFS) Apply(v graph.VertexID, old int32, acc int32, hasAcc bool, rt *engine.Runtime) (int32, bool) {
	if !hasAcc || acc == unreached {
		return old, false
	}
	if old == unreached || acc < old {
		return acc, true
	}
	return old, false
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
