package apps

import (
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
type KCore struct{}

// NewKCore returns a k-core decomposition.
func NewKCore() *KCore { return &KCore{} }

// Name implements App.
func (kc *KCore) Name() string { return "kcore" }

// Coeffs: peeling scans are degree checks (cheap) with occasional neighbor
// decrements through random indices.
func (kc *KCore) Coeffs() engine.CostCoeffs {
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
	return runOffEngine(kc, pl, cl, engine.Options{})
}

func (kc *KCore) count(pl *engine.Placement, account *engine.Accountant) (any, error) {
	n := pl.G.NumVertices
	// A peel decrements each distinct neighbour once in any order, so the
	// rows need no sorting.
	und := pl.G.BuildUndirectedSets()

	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(und.Degree(graph.VertexID(v)))
	}
	core := make([]int32, n)
	remaining := n

	// alive[p] lists machine p's masters that are still in the graph, in
	// MasterVerts order (one arena copy, compacted in place as each round
	// scans it), so a round's work follows the survivors instead of
	// re-testing every vertex peeled in the forty-odd rounds before it.
	// Keeping the order keeps the result: a peel lowers its neighbours'
	// degrees at once, so who else falls in the same round depends on it.
	arena := make([]graph.VertexID, 0, n)
	var aliveBuf [engine.MaxMachines][]graph.VertexID
	alive := aliveBuf[:pl.M]
	for p, verts := range pl.MasterVerts {
		arena = append(arena, verts...)
		alive[p] = arena[len(arena)-len(verts):]
	}

	var countersBuf [engine.MaxMachines]engine.StepCounters // a placement has at most MaxMachines
	counters := countersBuf[:pl.M]
	rounds := 0
	k := int32(1)
	for remaining > 0 {
		// Peel all vertices below k, in synchronized rounds, before raising k.
		for {
			// The frontier is every survivor: each one is degree-checked.
			account.StepBegin(rounds, remaining, "sync")
			rounds++
			clear(counters)
			before := remaining
			for p, list := range alive {
				sc := &counters[p]
				sc.Vertices = float64(len(pl.MasterVerts[p]))
				sc.Gathers += float64(len(list)) // one degree check per survivor
				kept := list[:0]
				for _, v := range list {
					if deg[v] >= k {
						kept = append(kept, v)
						continue
					}
					core[v] = k - 1
					sc.Applies++
					sc.UpdatesOut += float64(mirrorsOf(pl, v, p))
					neighbors := und.Neighbors(v)
					sc.Gathers += float64(len(neighbors))
					if u := float64(len(neighbors)); u > sc.MaxUnit {
						sc.MaxUnit = u
					}
					// A peeled neighbour's degree is never read again, so
					// the decrement needs no liveness test.
					for _, u := range neighbors {
						deg[u]--
					}
				}
				remaining -= len(list) - len(kept)
				alive[p] = kept
			}
			account.Superstep(counters)
			if remaining == before {
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
	return KCoreResult{Core: core, MaxCore: int(maxCore), Rounds: rounds}, nil
}
