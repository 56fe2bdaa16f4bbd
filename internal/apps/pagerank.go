package apps

import (
	"math"
	"slices"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// PageRank implements Eq 8 of the paper:
//
//	PR(u) = (1-d)/N + d · Σ_{v∈B(u)} PR(v)/L(v)
//
// scaled by N as in PowerGraph (initial rank 1, ranks sum to N), iterating
// until every vertex's rank moves less than Tolerance or MaxIters is hit.
type PageRank struct {
	// Damping is the damping factor d (default 0.85).
	Damping float64
	// Tolerance stops iteration when no rank changes by more than this.
	Tolerance float64
	// MaxIters bounds the superstep count.
	MaxIters int
}

// NewPageRank returns PageRank with the PowerGraph defaults.
func NewPageRank() *PageRank {
	return &PageRank{Damping: 0.85, Tolerance: 1e-3, MaxIters: 20}
}

// prState is the per-vertex state: the current rank and the precomputed
// reciprocal out-degree used by gather.
type prState struct {
	rank   float64
	invOut float64
}

// Name implements App.
func (pr *PageRank) Name() string { return "pagerank" }

// Coeffs implements engine.Program. PageRank gathers are memory-bound: each
// one reads a remote vertex record and read-modify-writes an accumulator
// through a random index, so bytes dominate ops (the Fig 2 saturation).
func (pr *PageRank) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    60,
		BytesPerGather:  340,
		OpsPerApply:     120,
		BytesPerApply:   320,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.015,
		StepOverheadOps: 2e3,
		AccumBytes:      12,
		ValueBytes:      12,
	}
}

// Direction implements engine.Program: rank flows along in-edges.
func (pr *PageRank) Direction() engine.Direction { return engine.GatherIn }

// ApplyAll implements engine.Program: every vertex recomputes each round.
func (pr *PageRank) ApplyAll() bool { return true }

// MaxSupersteps implements engine.Program.
func (pr *PageRank) MaxSupersteps() int { return pr.MaxIters }

// Init implements engine.Program: rank 1 everywhere and 1/L(v) for every
// vertex with out-edges. The out-degrees are counted straight into invOut —
// small integers are exact in a float64, so inverting the count gives the bits
// of 1/float64(outDegree) without a degree array in between.
func (pr *PageRank) Init(vals []prState, g *graph.Graph) {
	for _, e := range g.Edges {
		vals[e.Src].invOut++
	}
	for v := range vals {
		s := &vals[v]
		s.rank = 1
		if s.invOut > 0 {
			s.invOut = 1 / s.invOut
		}
	}
}

// Fold implements engine.Program: Σ PR(s)/L(s) over the active sources. The
// first contribution is taken as is — 0+x is not x for a negative zero — and
// the product is rounded before it is added, so no platform fuses the pair
// into one multiply-add and the sum's bits match a per-edge walk everywhere.
func (pr *PageRank) Fold(acc float64, has bool, vals []prState, srcs []graph.VertexID, act []bool) (float64, int32) {
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		c := float64(vals[s].rank * vals[s].invOut)
		if has {
			acc += c
		} else {
			acc, has = c, true
		}
		n++
	}
	return acc, n
}

// Apply implements engine.Program: Eq 8 for every vertex of vs; a vertex
// signals while its rank still moves by more than Tolerance. The parameters
// are read once — every store into vals could alias pr otherwise.
func (pr *PageRank) Apply(vs []graph.VertexID, vals []prState, acc []float64, has []bool, rt *engine.Runtime, signal []graph.VertexID) []graph.VertexID {
	damping, tolerance := pr.Damping, pr.Tolerance
	teleport := 1 - damping
	n := len(signal)
	signal = slices.Grow(signal, len(vs))[:n+len(vs)]
	for _, v := range vs {
		sum := math.Float64frombits(math.Float64bits(acc[v]) & -uint64(activeBit(has[v])))
		newRank := teleport + damping*sum
		signal[n] = v
		n += int(activeBit(math.Abs(newRank-vals[v].rank) > tolerance))
		vals[v].rank = newRank
	}
	return signal[:n]
}

// Run implements App. The Output is the []float64 rank vector.
func (pr *PageRank) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return pr.run(pl, cl, engine.Options{})
}

func (pr *PageRank) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	return runGAS(pr, pl, cl, opts, ranksOf)
}

// ranksOf extracts the rank vector from PageRank's vertex states.
func ranksOf(vals []prState) []float64 {
	ranks := make([]float64, len(vals))
	for i, s := range vals {
		ranks[i] = s.rank
	}
	return ranks
}
