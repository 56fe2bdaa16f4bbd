package partition

import (
	"testing"
	"testing/quick"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// arbitraryGraph builds a small graph from fuzz input.
func arbitraryGraph(seed uint64, rawN, rawM uint16) *graph.Graph {
	n := 2 + int(rawN%500)
	m := 1 + int(rawM%4000)
	src := rng.New(seed)
	g := &graph.Graph{Name: "prop", NumVertices: n}
	for len(g.Edges) < m {
		u := graph.VertexID(src.Intn(n))
		v := graph.VertexID(src.Intn(n))
		if u != v {
			g.Edges = append(g.Edges, graph.Edge{Src: u, Dst: v})
		}
	}
	return g
}

// arbitraryShares builds a valid normalized share vector from fuzz input.
func arbitraryShares(raw []uint8) []float64 {
	m := 1 + len(raw)%7
	ws := make([]float64, m)
	for i := range ws {
		w := 1.0
		if i < len(raw) {
			w = 1 + float64(raw[i])
		}
		ws[i] = w
	}
	shares, _ := NormalizeShares(ws)
	return shares
}

// TestPropertyAllPartitionersTotal checks, for every algorithm and random
// graph/share/seed combinations: every edge assigned, every owner in range,
// and assignment deterministic.
func TestPropertyAllPartitionersTotal(t *testing.T) {
	for _, p := range WithExtensions() {
		p := p
		f := func(seed uint64, rawN, rawM uint16, rawShares []uint8) bool {
			g := arbitraryGraph(seed, rawN, rawM)
			shares := arbitraryShares(rawShares)
			owner, err := p.Partition(g, shares, seed)
			if err != nil {
				return false
			}
			if len(owner) != len(g.Edges) {
				return false
			}
			for _, o := range owner {
				if o < 0 || int(o) >= len(shares) {
					return false
				}
			}
			again, err := p.Partition(g, shares, seed)
			if err != nil {
				return false
			}
			for i := range owner {
				if owner[i] != again[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestPropertyPlacementInvariants checks that finalization preserves the
// structural invariants for arbitrary assignments.
func TestPropertyPlacementInvariants(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16, rawShares []uint8) bool {
		g := arbitraryGraph(seed, rawN, rawM)
		shares := arbitraryShares(rawShares)
		pl, err := Apply(NewRandomHash(), g, shares, seed)
		if err != nil {
			return false
		}
		// Edge conservation.
		total := int64(0)
		for _, c := range pl.EdgeCounts() {
			total += c
		}
		if total != int64(len(g.Edges)) {
			return false
		}
		// Replication factor bounds.
		rf := pl.ReplicationFactor()
		if rf < 1 || rf > float64(len(shares)) {
			return false
		}
		// Masters sit on replica machines for every connected vertex.
		for v := 0; v < g.NumVertices; v++ {
			mask := pl.ReplicaMask[v]
			if mask != 0 && mask&(1<<uint(pl.Master[v])) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGridReplicationBound checks HDRF-independent structural bound:
// grid replicas never exceed rows+cols-1.
func TestPropertyGridReplicationBound(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16, rawMachines uint8) bool {
		g := arbitraryGraph(seed, rawN, rawM)
		m := 1 + int(rawMachines%12)
		shares := UniformShares(m)
		pl, err := Apply(NewGrid(), g, shares, seed)
		if err != nil {
			return false
		}
		rows, cols := gridShape(m)
		bound := rows + cols - 1
		for v := 0; v < g.NumVertices; v++ {
			count := 0
			for mask := pl.ReplicaMask[v]; mask != 0; mask &= mask - 1 {
				count++
			}
			if count > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHybridLowDegreeColocation checks Hybrid's defining invariant on
// arbitrary graphs.
func TestPropertyHybridLowDegreeColocation(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16) bool {
		g := arbitraryGraph(seed, rawN, rawM)
		h := NewHybrid()
		owner, err := h.Partition(g, UniformShares(4), seed)
		if err != nil {
			return false
		}
		inDeg := g.InDegrees()
		at := map[graph.VertexID]engine.Machine{}
		for i, e := range g.Edges {
			if inDeg[e.Dst] > h.Threshold {
				continue
			}
			if prev, ok := at[e.Dst]; ok && prev != owner[i] {
				return false
			}
			at[e.Dst] = owner[i]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

var _ = engine.MaxMachines
