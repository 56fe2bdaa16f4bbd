package apps

import (
	"fmt"
	"math/bits"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
)

// Coloring greedily colors the graph so no two adjacent vertices share a
// color and reports the number of colors used, the PowerGraph application the
// paper benchmarks. It executes asynchronously (no global barrier — the
// property the paper cites for Coloring's smaller balancing benefit): each
// round, every machine sweeps its master vertices, resolving conflicts by a
// random-priority rule (the lower-priority endpoint of a conflicting edge
// picks the smallest color unused in its neighborhood), which terminates
// because the highest-priority vertex of any conflict never moves.
type Coloring struct {
	// MaxRounds is a safety bound on conflict-resolution sweeps.
	MaxRounds int
	// Seed drives the random priorities.
	Seed uint64
}

// NewColoring returns the default configuration.
func NewColoring() *Coloring { return &Coloring{MaxRounds: 64, Seed: 1} }

// Name implements App.
func (c *Coloring) Name() string { return "coloring" }

// Coeffs: neighborhood scans walk adjacency lists (streaming) but consult
// each neighbor's current color through a random index.
func (c *Coloring) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    90,  // per neighbor probe
		BytesPerGather:  140, // neighbor id (stream) + color load (random)
		OpsPerApply:     300, // recolor: min-free-color scan bookkeeping
		BytesPerApply:   480,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.05,
		StepOverheadOps: 1e3,
		AccumBytes:      0,
		ValueBytes:      8, // color update pushed to mirrors
	}
}

// ColoringResult is the application output.
type ColoringResult struct {
	// Colors assigns each vertex its color.
	Colors []int32
	// NumColors is the total number of colors in use.
	NumColors int
	// Rounds is how many asynchronous sweeps ran.
	Rounds int
}

// Run implements App.
func (c *Coloring) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return c.runTraced(pl, cl, nil)
}

func (c *Coloring) runTraced(pl *engine.Placement, cl *cluster.Cluster, tc trace.Collector) (*engine.Result, error) {
	if cl.Size() != pl.M {
		return nil, fmt.Errorf("coloring: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	// The conflict test, the colour marks and the counters see neighbour
	// sets, never their order.
	und := g.BuildUndirectedSets()

	colors := make([]int32, n)
	priority := make([]uint64, n)
	for v := range priority {
		priority[v] = rng.Hash2(c.Seed, uint64(v))
	}

	// mark[color] == stamp marks colors seen in the current neighborhood.
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := und.Degree(graph.VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	mark := make([]int64, maxDeg+2)
	for i := range mark {
		mark[i] = -1
	}
	stamp := int64(0)

	account := engine.NewAccountant(cl, c.Coeffs())
	account.SetCollector(tc)
	var countersBuf [engine.MaxMachines]engine.StepCounters // a placement has at most MaxMachines
	counters := countersBuf[:pl.M]
	rounds := 0
	for ; rounds < c.MaxRounds; rounds++ {
		account.StepBegin(rounds, n, "async")
		clear(counters)
		changed := false
		for p := 0; p < pl.M; p++ {
			sc := &counters[p]
			sc.Vertices = float64(len(pl.MasterVerts[p]))
			for _, v := range pl.MasterVerts[p] {
				neighbors := und.Neighbors(v)
				sc.Gathers += float64(len(neighbors))
				if u := float64(len(neighbors)); u > sc.MaxUnit {
					sc.MaxUnit = u // one neighborhood scan is sequential
				}
				conflict := false
				for _, u := range neighbors {
					if colors[u] == colors[v] && losesTo(priority, v, u) {
						conflict = true
						break
					}
				}
				if !conflict {
					continue
				}
				// Recolor v with the smallest color not used by neighbors.
				stamp++
				for _, u := range neighbors {
					if int(colors[u]) < len(mark) {
						mark[colors[u]] = stamp
					}
				}
				next := int32(0)
				for int(next) < len(mark) && mark[next] == stamp {
					next++
				}
				colors[v] = next
				changed = true
				sc.Applies++
				sc.UpdatesOut += float64(mirrorsOf(pl, v, p))
			}
		}
		account.Async(counters)
		if !changed {
			rounds++
			break
		}
	}

	numColors := 0
	for _, col := range colors {
		if int(col)+1 > numColors {
			numColors = int(col) + 1
		}
	}
	out := ColoringResult{Colors: colors, NumColors: numColors, Rounds: rounds}
	return account.Finish(c.Name(), g.Name, out), nil
}

// losesTo reports whether v must yield to u in a color conflict.
func losesTo(priority []uint64, v, u graph.VertexID) bool {
	pv, pu := priority[v], priority[u]
	if pv != pu {
		return pv < pu
	}
	return v < u
}

// mirrorsOf counts the replicas of v other than the one on machine p.
func mirrorsOf(pl *engine.Placement, v graph.VertexID, p int) int {
	return bits.OnesCount64(pl.ReplicaMask[v] &^ (1 << uint(p)))
}
