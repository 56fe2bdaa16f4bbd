package apps

import (
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// KCore computes the full k-core decomposition of the undirected structure
// by synchronous peeling: for increasing k, vertices whose remaining degree
// drops below k are removed in rounds until the k-core stabilizes. A
// vertex's core number is the largest k whose core contains it. Like SSSP,
// it is an extension beyond the paper's benchmark set, exercising a
// degeneracy-ordered, heavily iterative workload whose active set shrinks
// unevenly across machines.
type KCore struct {
	// MaxK bounds the decomposition (0 = no bound).
	MaxK int
}

// NewKCore returns an unbounded decomposition.
func NewKCore() *KCore { return &KCore{} }

// Name implements App.
func (kc *KCore) Name() string { return "kcore" }

// coeffs: peeling scans are degree checks (cheap) with occasional neighbor
// decrements through random indices.
func (kc *KCore) coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    40, // per degree check / neighbor decrement
		BytesPerGather:  80,
		OpsPerApply:     120, // per removal
		BytesPerApply:   260,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.04,
		StepOverheadOps: 2e3,
		AccumBytes:      8,
		ValueBytes:      8,
	}
}

// KCoreResult is the application output.
type KCoreResult struct {
	// Core holds each vertex's core number.
	Core []int32
	// MaxCore is the degeneracy of the graph.
	MaxCore int
	// Rounds counts peeling supersteps.
	Rounds int
}

// Run implements App.
func (kc *KCore) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	if cl.Size() != pl.M {
		return nil, fmt.Errorf("kcore: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	und := g.BuildUndirectedCSR()

	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(und.Degree(graph.VertexID(v)))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	remaining := n

	account := engine.NewAccountant(cl, kc.coeffs())
	counters := make([]engine.StepCounters, pl.M)
	rounds := 0
	k := int32(1)
	for remaining > 0 {
		if kc.MaxK > 0 && int(k) > kc.MaxK {
			// Everything left belongs to a core at least MaxK deep.
			for v := range removed {
				if !removed[v] {
					core[v] = k - 1
				}
			}
			break
		}
		// Peel all vertices below k, in synchronized rounds, before raising k.
		for {
			rounds++
			clear(counters)
			peeled := 0
			for p := 0; p < pl.M; p++ {
				sc := &counters[p]
				sc.Vertices = float64(len(pl.MasterVerts[p]))
				for _, v := range pl.MasterVerts[p] {
					if removed[v] {
						continue
					}
					sc.Gathers++ // the degree check
					if deg[v] >= k {
						continue
					}
					removed[v] = true
					core[v] = k - 1
					peeled++
					remaining--
					sc.Applies++
					sc.UpdatesOut += float64(mirrorsOf(pl, v, p))
					neighbors := und.Neighbors(v)
					sc.Gathers += float64(len(neighbors))
					if u := float64(len(neighbors)); u > sc.MaxUnit {
						sc.MaxUnit = u
					}
					for _, u := range neighbors {
						if !removed[u] {
							deg[u]--
						}
					}
				}
			}
			account.Superstep(counters)
			if peeled == 0 {
				break
			}
		}
		k++
	}

	maxCore := int32(0)
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	out := KCoreResult{Core: core, MaxCore: int(maxCore), Rounds: rounds}
	return account.Finish(kc.Name(), g.Name, out), nil
}
