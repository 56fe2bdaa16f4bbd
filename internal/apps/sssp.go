package apps

import (
	"fmt"
	"math"
	"math/bits"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// SSSP computes single-source shortest paths over unit-hop edges in frontier
// rounds, the pattern of PowerGraph's sssp toolkit. It is an extension beyond
// the paper's four benchmarks, demonstrating that the profiling flow accepts
// arbitrary vertex programs (Section III-B). Every edge relaxes in both
// directions: the distances are undirected.
//
// The charges are those of machines relaxing in order 0..M−1 within a round,
// each over its own edges out of the previous round's frontier. Every active
// vertex holds distance r, the round number, for the whole round, since no
// relaxation offers it less than r+1; only unreached vertices improve, to
// r+1, once each. Which machine applies a vertex is then the first in machine
// order with an edge to it from the frontier, and a machine's gathers and
// partials count its frontier records and the distinct vertices they reach,
// none of which depends on the order of the edges. So a round is one pass over
// the edge stream that ORs into each vertex's reach word the bit of every
// machine with an edge to it from an active vertex, counting gathers as it
// goes with no branch on frontier data, then one sweep over the reach words:
// a word's lowest bit is the machine that applies the vertex if it was
// unreached, and each bit but the master's is one partial.
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
	account := engine.NewAccountant(cl, s.Coeffs())
	account.SetCollector(tc)
	// The reach word has a bit per machine, so the narrowest that fits is
	// chosen once per run.
	var rounds int
	switch {
	case pl.M <= 8:
		rounds = ssspRounds[uint8](s, pl, account, dist)
	case pl.M <= 16:
		rounds = ssspRounds[uint16](s, pl, account, dist)
	case pl.M <= 32:
		rounds = ssspRounds[uint32](s, pl, account, dist)
	default:
		rounds = ssspRounds[uint64](s, pl, account, dist)
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

// reachWord is a word with a bit per machine of a placement.
type reachWord interface {
	uint8 | uint16 | uint32 | uint64
}

// ssspRounds runs s's rounds, at most s.MaxIters, over reach words of type W,
// which must have at least pl.M bits, charging account and setting dist,
// which holds 0 at the source and +Inf elsewhere. It returns the number of
// rounds run. active holds the vertices at distance r, the round number, and
// is rebuilt in place as the vertices the round reaches.
func ssspRounds[W reachWord](s *SSSP, pl *engine.Placement, account *engine.Accountant, dist []float64) int {
	edges, owner := pl.G.Edges, pl.EdgeOwner
	active := make([]bool, len(dist))
	active[s.Source] = true
	reach := make([]W, len(dist))
	var countersBuf [engine.MaxMachines]engine.StepCounters // a placement has at most MaxMachines
	counters := countersBuf[:pl.M]
	frontier, r := 1, 0
	for ; r < s.MaxIters; r++ {
		account.StepBegin(r, frontier, "sync")
		var gathers [1 << 8]int
		reachPass(edges, owner, active, reach, &gathers)
		clear(counters)
		for p := range counters {
			counters[p].Gathers = float64(gathers[p])
			counters[p].Vertices = float64(len(pl.MasterVerts[p]))
		}

		clear(active)
		next := float64(r + 1)
		frontier = 0
		for v, w := range reach {
			if w == 0 {
				continue
			}
			reach[v] = 0
			if math.IsInf(dist[v], 1) {
				dist[v] = next
				active[v] = true
				frontier++
				p := bits.TrailingZeros64(uint64(w))
				counters[p].Applies++
				counters[p].UpdatesOut += float64(mirrorsOf(pl, graph.VertexID(v), p))
			}
			for w &^= 1 << pl.Master[v]; w != 0; w &= w - 1 {
				counters[bits.TrailingZeros64(uint64(w))].PartialsOut++
			}
		}
		account.Superstep(counters)
		if frontier == 0 {
			return r + 1
		}
	}
	return r
}

// reachPass ORs into reach[v] the bit of every machine owning an edge from an
// active vertex to v, and adds to gathers[p] the active endpoints of machine
// p's edges, with no branch on active. gathers is indexed by a Machine, so it
// needs no bounds check, and p&63, which is p since p < MaxMachines, keeps
// the shift from needing one either.
func reachPass[W reachWord](edges []graph.Edge, owner []engine.Machine, active []bool, reach []W, gathers *[1 << 8]int) {
	owner, reach = owner[:len(edges)], reach[:len(active)]
	for i, e := range edges {
		p := owner[i]
		a, b := activeBit(active[e.Src]), activeBit(active[e.Dst])
		gathers[p] += int(a + b)
		reach[e.Dst] |= W(uint64(a) << (p & 63))
		reach[e.Src] |= W(uint64(b) << (p & 63))
	}
}
