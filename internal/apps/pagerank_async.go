package apps

import (
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/trace"
)

// PageRankDelta is the asynchronous, push-based ("delta") PageRank that
// PowerGraph's async engine runs: instead of recomputing every rank each
// barrier, vertices accumulate residual rank mass and push it to their
// out-neighbors whenever it exceeds the tolerance. It converges to the same
// fixed point as the synchronous formulation and is included as an extension
// showing the engine's asynchronous accounting on a second application
// besides Coloring.
type PageRankDelta struct {
	// Damping is the damping factor d (default 0.85).
	Damping float64
	// Tolerance is the residual threshold below which a vertex stays quiet.
	Tolerance float64
	// MaxRounds bounds the asynchronous sweeps.
	MaxRounds int
}

// NewPageRankDelta returns the default configuration.
func NewPageRankDelta() *PageRankDelta {
	return &PageRankDelta{Damping: 0.85, Tolerance: 1e-3, MaxRounds: 1000}
}

// Name implements App.
func (pr *PageRankDelta) Name() string { return "pagerank_async" }

// Coeffs: pushes are slightly cheaper than the sync engine's gathers (no
// full-edge rescan), with the async engine's locking overhead folded into
// the serial fraction.
func (pr *PageRankDelta) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    50, // per pushed residual
		BytesPerGather:  300,
		OpsPerApply:     100, // per vertex activation
		BytesPerApply:   300,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.03,
		StepOverheadOps: 1e3,
		AccumBytes:      12,
		ValueBytes:      12,
	}
}

// Run implements App. The Output is the []float64 rank vector, on the same
// scale as the synchronous PageRank (ranks sum to ~N).
func (pr *PageRankDelta) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return pr.runTraced(pl, cl, nil)
}

func (pr *PageRankDelta) runTraced(pl *engine.Placement, cl *cluster.Cluster, tc trace.Collector) (*engine.Result, error) {
	if cl.Size() != pl.M {
		return nil, fmt.Errorf("pagerank_async: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	out := g.BuildOutCSR()

	// Push-based solver for rank = (1-d)·1 + d·Aᵀ·rank: with rank starting
	// at 0 and residual at (1-d), pushing a vertex's residual into its rank
	// and d·r/L(v) to each out-neighbor preserves the invariant
	// solution = rank + propagation(residual), so rank converges to the
	// synchronous fixed point as residuals drain below Tolerance.
	rank := make([]float64, n)
	residual := make([]float64, n)
	for v := range residual {
		residual[v] = 1 - pr.Damping
	}

	account := engine.NewAccountant(cl, pr.Coeffs())
	account.SetCollector(tc)
	var countersBuf [engine.MaxMachines]engine.StepCounters // a placement has at most MaxMachines
	counters := countersBuf[:pl.M]
	rounds := 0
	for ; rounds < pr.MaxRounds; rounds++ {
		// Like Coloring's, a round sweeps every master.
		account.StepBegin(rounds, n, "async")
		clear(counters)
		anyActive := false
		for p := 0; p < pl.M; p++ {
			sc := &counters[p]
			sc.Vertices = float64(len(pl.MasterVerts[p]))
			for _, v := range pl.MasterVerts[p] {
				r := residual[v]
				if r < pr.Tolerance {
					continue
				}
				anyActive = true
				residual[v] = 0
				rank[v] += r
				sc.Applies++
				sc.UpdatesOut += float64(mirrorsOf(pl, v, p))
				neighbors := out.Neighbors(v)
				if len(neighbors) == 0 {
					continue
				}
				push := pr.Damping * r / float64(len(neighbors))
				sc.Gathers += float64(len(neighbors))
				if u := float64(len(neighbors)); u > sc.MaxUnit {
					sc.MaxUnit = u
				}
				for _, u := range neighbors {
					residual[u] += push
				}
			}
		}
		account.Async(counters)
		if !anyActive {
			break
		}
	}

	return account.Finish(pr.Name(), g.Name, rank), nil
}
