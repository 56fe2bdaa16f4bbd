// Package graph provides the graph substrate the rest of the system is built
// on: edge lists, compressed sparse row (CSR) adjacency, degree statistics,
// and serialization. It corresponds to the graph loading/finalization layers
// of the PowerGraph framework the paper builds upon.
package graph

import (
	"fmt"
	"math/bits"
)

// VertexID identifies a vertex. Graphs in this reproduction stay below 2^32
// vertices (the largest graph in the paper, the social network, has 4.8M).
type VertexID uint32

// Edge is a directed edge from Src to Dst. Undirected graphs are represented
// as directed graphs whose algorithms treat edges symmetrically, exactly as
// PowerGraph's applications do.
type Edge struct {
	Src, Dst VertexID
}

// Graph is an immutable edge-list graph. The zero value is an empty graph.
type Graph struct {
	// Name labels the graph in experiment output (e.g. "amazon", "proxy-1.95").
	Name string
	// NumVertices is the number of vertices; vertex IDs are 0..NumVertices-1.
	NumVertices int
	// Edges holds every directed edge.
	Edges []Edge
	// Alpha is the declared or fitted power-law exponent, 0 when unknown.
	Alpha float64
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// AvgDegree returns |E| / |V| (Eq 6 of the paper), or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices == 0 {
		return 0
	}
	return float64(len(g.Edges)) / float64(g.NumVertices)
}

// Validate checks structural invariants: all endpoints in range and no
// self-loops (the paper's generator omits self-loops).
func (g *Graph) Validate() error {
	if g.NumVertices < 0 {
		return fmt.Errorf("graph %q: negative vertex count %d", g.Name, g.NumVertices)
	}
	n := VertexID(g.NumVertices)
	for i, e := range g.Edges {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("graph %q: edge %d (%d->%d) out of range [0,%d)", g.Name, i, e.Src, e.Dst, n)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("graph %q: edge %d is a self-loop at vertex %d", g.Name, i, e.Src)
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int32 {
	deg := make([]int32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int32 {
	deg := make([]int32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// TotalDegrees returns in-degree + out-degree per vertex, the degree notion
// used by the paper's degree-distribution plots and the Hybrid/Ginger cuts.
func (g *Graph) TotalDegrees() []int32 {
	deg := make([]int32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	return deg
}

// MaxDegree returns the maximum total degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := int32(0)
	for _, d := range g.TotalDegrees() {
		if d > maxDeg {
			maxDeg = d
		}
	}
	return int(maxDeg)
}

// LogDegreeBuckets counts degrees in the power-of-two buckets [2^b, 2^(b+1))
// for b = 0, 1, ..., the binning of the paper's Fig 6. Degree 0 joins bucket
// 0; when no degree is positive there are no buckets.
func LogDegreeBuckets(degrees []int32) []int64 {
	var buckets []int64
	zeros := int64(0)
	for _, d := range degrees {
		if d == 0 {
			zeros++
			continue
		}
		b := bits.Len32(uint32(d)) - 1
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	if len(buckets) > 0 {
		buckets[0] += zeros
	}
	return buckets
}

// LogDegreeBucketLabel names bucket b of LogDegreeBuckets: "1", "2-3",
// "4-7", ...
func LogDegreeBucketLabel(b int) string {
	if b == 0 {
		return "1"
	}
	return fmt.Sprintf("%d-%d", 1<<b, 1<<(b+1)-1)
}

// CSR is a compressed-sparse-row adjacency structure over a Graph.
// Neighbors of v occupy Targets[Offsets[v]:Offsets[v+1]]. BuildOutCSR and
// BuildInCSR sort every row, for consumers whose output follows neighbor
// order (delta PageRank, the adjacency writer, Ginger's reference spec);
// BuildUndirectedSets and InCSRInto leave rows in edge order.
type CSR struct {
	Offsets []int64
	Targets []VertexID
}

// Degree returns the number of neighbors of v in the CSR.
func (c *CSR) Degree(v VertexID) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Neighbors returns the neighbor slice of v, in the builder's row order. The
// slice aliases the CSR's storage and must not be modified.
func (c *CSR) Neighbors(v VertexID) []VertexID {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// rowsBy says which endpoint of an edge names the row the other endpoint is
// listed in.
type rowsBy int

const (
	bySrc  rowsBy = iota // row e.Src lists e.Dst: out-adjacency
	byDst                // row e.Dst lists e.Src: in-adjacency
	byBoth               // both: the symmetric structure
)

// buildCSR builds directed adjacency with every row in ascending order by two
// counting passes and no comparison sort. The first pass scatters the
// transpose in edge order; the second walks the transpose's rows in ascending
// order and appends each row's index to the rows it names, so every output row
// fills in ascending order. O(V + E), and the number of allocations does not
// depend on V.
func buildCSR(n int, edges []Edge, rows rowsBy) *CSR {
	var t CSR // the transpose: keyed by the other endpoint
	buildCSRInto(&t, n, edges, [...]rowsBy{bySrc: byDst, byDst: bySrc}[rows])
	c := &CSR{Offsets: make([]int64, n+1), Targets: make([]VertexID, len(t.Targets))}
	for _, k := range t.Targets {
		c.Offsets[k+1]++
	}
	c.startRows(n)
	for v := 0; v < n; v++ {
		for _, k := range t.Neighbors(VertexID(v)) {
			c.Targets[c.Offsets[k]] = VertexID(v)
			c.Offsets[k]++
		}
	}
	c.rewindRows(n)
	return c
}

// startRows turns the per-row counts in Offsets[1:] into row starts.
func (c *CSR) startRows(n int) {
	for i := 0; i < n; i++ {
		c.Offsets[i+1] += c.Offsets[i]
	}
}

// rewindRows restores the row boundaries after a scatter pass that used
// Offsets[k] itself as row k's write cursor: every Offsets[k] has advanced to
// the old Offsets[k+1], so shifting the array right by one undoes it without
// a separate cursor allocation.
func (c *CSR) rewindRows(n int) {
	copy(c.Offsets[1:], c.Offsets[:n])
	c.Offsets[0] = 0
}

// BuildOutCSR builds out-adjacency (neighbors reachable from each source).
func (g *Graph) BuildOutCSR() *CSR { return buildCSR(g.NumVertices, g.Edges, bySrc) }

// BuildInCSR builds in-adjacency (sources pointing at each target).
func (g *Graph) BuildInCSR() *CSR { return buildCSR(g.NumVertices, g.Edges, byDst) }

// BuildUndirectedSets builds symmetric adjacency with duplicate neighbors
// removed but rows unsorted: each row keeps its neighbors' first occurrences
// in edge order. It is one scatter (buildCSRInto) and one in-place
// compaction, with no transpose and no ordering pass, for consumers that
// only visit, mark or count each neighbor once (KCore, Coloring, Triangle
// Count). O(V + E), and the number of allocations does not depend on V.
func (g *Graph) BuildUndirectedSets() *CSR {
	c := &CSR{}
	buildCSRInto(c, g.NumVertices, g.Edges, byBoth)
	c.dedupUnsortedRows(g.NumVertices)
	return c
}

// dedupUnsortedRows removes repeat neighbors from each row in place, keeping
// first occurrences in row order: kept[u] == v+1 once u is in row v's output.
// Which records repeat follows no pattern a branch predictor learns (5 to
// 46 % of a generated graph's records are repeats), so every record is
// written at the cursor and the cursor advances by whether it was fresh; the
// cursor never passes the record being read, so the write is safe in place.
func (c *CSR) dedupUnsortedRows(n int) {
	kept := make([]int32, n)
	offsets, targets := c.Offsets, c.Targets
	out := int64(0)
	for v := 0; v < n; v++ {
		start, end := offsets[v], offsets[v+1]
		offsets[v] = out
		stamp := int32(v) + 1
		for _, u := range targets[start:end] {
			var fresh int64
			if kept[u] != stamp {
				fresh = 1
			}
			targets[out] = u
			out += fresh
			kept[u] = stamp
		}
	}
	offsets[n] = out
	c.Targets = targets[:out]
}

// buildCSRInto rebuilds adjacency into c's existing storage, growing the
// backing arrays only when the graph outgrows them. Rows are unsorted, in
// stable edge order. Consumers that only aggregate over neighbor sets
// (histograms, degree sums) get identical results to the sorted builders at
// half the passes.
func buildCSRInto(c *CSR, n int, edges []Edge, rows rowsBy) {
	m := len(edges)
	if rows == byBoth {
		m *= 2
	}
	if cap(c.Offsets) >= n+1 {
		c.Offsets = c.Offsets[:n+1]
		clear(c.Offsets)
	} else {
		c.Offsets = make([]int64, n+1)
	}
	if cap(c.Targets) >= m {
		c.Targets = c.Targets[:m]
	} else {
		c.Targets = make([]VertexID, m)
	}
	for _, e := range edges {
		if rows != byDst {
			c.Offsets[e.Src+1]++
		}
		if rows != bySrc {
			c.Offsets[e.Dst+1]++
		}
	}
	c.startRows(n)
	for _, e := range edges {
		if rows != byDst {
			c.Targets[c.Offsets[e.Src]] = e.Dst
			c.Offsets[e.Src]++
		}
		if rows != bySrc {
			c.Targets[c.Offsets[e.Dst]] = e.Src
			c.Offsets[e.Dst]++
		}
	}
	c.rewindRows(n)
}

// InCSRInto rebuilds in-adjacency (sources pointing at each target) into c,
// with unsorted rows in stable edge order. See buildCSRInto.
func (g *Graph) InCSRInto(c *CSR) { buildCSRInto(c, g.NumVertices, g.Edges, byDst) }

// FootprintBytes estimates the on-disk text footprint of the graph, matching
// the methodology behind Table II's Footprint column (tab-separated decimal
// edge list). The constant 13.6 bytes/edge reproduces Table II's
// bytes-per-edge ratio (e.g. amazon: 46MB / 3.39M edges).
func (g *Graph) FootprintBytes() int64 {
	return int64(float64(len(g.Edges)) * 13.6)
}
