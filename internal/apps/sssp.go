package apps

import (
	"fmt"
	"math"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// SSSP computes single-source shortest paths over unit-hop edges in frontier
// rounds, the pattern of PowerGraph's sssp toolkit. It is an extension beyond
// the paper's four benchmarks, demonstrating that the profiling flow accepts
// arbitrary vertex programs (Section III-B). Every edge relaxes in both
// directions: the distances are undirected. Machines relax in order 0..M−1
// within a round, each out of the previous round's frontier, in one of two
// walks:
//
//   - The scan walks every machine's local edges.
//   - The key walk serves a placement that already holds its GatherBoth
//     grouping (a BFS, components or ClusterBFS run compiled it): per
//     machine it visits the grouping's keys and relaxes each active key's
//     companions, so it skips the edges of inactive vertices. It never
//     compiles the grouping, which would cost a placement that serves only
//     SSSP 8 B per edge.
//
// The two walks charge the same. Every active vertex holds distance r, the
// round number, for the whole round, since no relaxation offers it less than
// r+1; only unreached vertices improve, to r+1, once each. Which machine
// applies a vertex is then the first in machine order with an edge to it
// from the frontier, and a machine's gathers and partials count its frontier
// records and the distinct vertices they reach, so gathers, partials, applies
// and update counts depend only on the machine order, which both walks keep,
// and not on the order within a machine.
type SSSP struct {
	// Source is the root vertex.
	Source graph.VertexID
	// MaxIters bounds the relaxation rounds.
	MaxIters int
}

// NewSSSP returns an undirected SSSP from vertex 0.
func NewSSSP() *SSSP { return &SSSP{Source: 0, MaxIters: 10000} }

// Name implements App.
func (s *SSSP) Name() string { return "sssp" }

// Coeffs: PowerGraph's sssp toolkit prices a relaxation as a read of a
// distance and an edge weight and a conditional write — comparable to
// connected components with an extra float compare. The price keeps the
// weight read though every edge here is a unit hop, so simulated seconds
// stay those of the toolkit.
func (s *SSSP) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    80,
		BytesPerGather:  130,
		OpsPerApply:     80,
		BytesPerApply:   240,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.03,
		StepOverheadOps: 2e3,
		AccumBytes:      16,
		ValueBytes:      16,
	}
}

// SSSPResult is the application output.
type SSSPResult struct {
	// Dist holds the shortest distance per vertex (+Inf when unreachable).
	Dist []float64
	// Reached counts vertices with finite distance.
	Reached int
	// Rounds is the number of relaxation supersteps.
	Rounds int
}

// Run implements App.
func (s *SSSP) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return s.runTraced(pl, cl, nil)
}

func (s *SSSP) runTraced(pl *engine.Placement, cl *cluster.Cluster, tc trace.Collector) (*engine.Result, error) {
	if cl.Size() != pl.M {
		return nil, fmt.Errorf("sssp: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	if err := validateSource(s.Name(), n, s.Source); err != nil {
		return nil, err
	}

	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[s.Source] = 0
	// active and nextActive, swapped each round, share one allocation.
	// touched keeps its own: one 3|V|-byte block can round up a page further
	// than the 2|V| and |V| ones (at 11k vertices, 40 KiB against 36 KiB).
	flags := make([]bool, 2*n)
	active, nextActive := flags[:n:n], flags[n:]
	active[s.Source] = true
	frontier, nextFrontier := 1, 0

	// touched[v] is one more than the last machine that relaxed into v this
	// round, so each (machine, vertex) partial is counted once: machines run
	// in order within a round, and the round's clear zeroes every stamp
	// (p < MaxMachines, so p+1 fits a byte).
	touched := make([]uint8, n)

	account := engine.NewAccountant(cl, s.Coeffs())
	account.SetCollector(tc)
	var countersBuf [engine.MaxMachines]engine.StepCounters // a placement has at most MaxMachines
	counters := countersBuf[:pl.M]
	anyChange := false
	relax := func(sc *engine.StepCounters, p int, stamp uint8, from, to graph.VertexID) {
		sc.Gathers++
		if nd := dist[from] + 1; nd < dist[to] {
			dist[to] = nd
			if !nextActive[to] {
				nextActive[to] = true
				nextFrontier++
			}
			anyChange = true
			sc.Applies++
			sc.UpdatesOut += float64(mirrorsOf(pl, to, p))
		}
		if touched[to] != stamp {
			touched[to] = stamp
			if pl.Master[to] != engine.Machine(p) {
				sc.PartialsOut++
			}
		}
	}
	// A grouping, once compiled, stays: the walk is chosen once per run.
	_, walk := pl.CompiledBothGrouping(0)
	var local [][]int32
	if !walk {
		local = pl.LocalEdges()
	}
	rounds := 0
	for ; rounds < s.MaxIters; rounds++ {
		account.StepBegin(rounds, frontier, "sync")
		clear(counters)
		clear(touched)
		anyChange = false
		for p := 0; p < pl.M; p++ {
			sc := &counters[p]
			sc.Vertices = float64(len(pl.MasterVerts[p]))
			stamp := uint8(p + 1)
			if walk {
				grp, _ := pl.CompiledBothGrouping(p)
				for i, a := range grp.Keys {
					if active[a] {
						for _, to := range grp.Vals[grp.Offs[i]:grp.Offs[i+1]] {
							relax(sc, p, stamp, a, to)
						}
					}
				}
				continue
			}
			for _, ei := range local[p] {
				e := g.Edges[ei]
				if active[e.Src] {
					relax(sc, p, stamp, e.Src, e.Dst)
				}
				if active[e.Dst] {
					relax(sc, p, stamp, e.Dst, e.Src)
				}
			}
		}
		account.Superstep(counters)
		if !anyChange {
			rounds++
			break
		}
		active, nextActive = nextActive, active
		clear(nextActive)
		frontier, nextFrontier = nextFrontier, 0
	}

	reached := 0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
		}
	}
	out := SSSPResult{Dist: dist, Reached: reached, Rounds: rounds}
	return account.Finish(s.Name(), g.Name, out), nil
}
