// Package engine is the distributed graph-processing substrate: a
// PowerGraph-style gather–apply–scatter engine that executes vertex programs
// for real on a vertex-cut partitioned graph while charging simulated time to
// the heterogeneous machine models of package cluster.
//
// The separation mirrors the paper's Fig 7b flow: a partitioner assigns every
// edge to a machine (package partition), the engine "finalizes" the graph by
// constructing master/mirror replicas and the connections between machines,
// then executes the application superstep by superstep. Computation results
// are exact (they do not depend on the partition); execution time, energy and
// communication volume do, which is precisely the effect the paper measures.
package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// MaxMachines bounds cluster size; replica sets are stored as 64-bit masks.
const MaxMachines = 64

// Placement is a finalized vertex-cut: every edge owned by one machine, every
// vertex replicated onto the machines its edges touch, one replica per vertex
// designated master (PowerGraph's finalization step).
type Placement struct {
	G *graph.Graph
	// M is the number of machines.
	M int
	// EdgeOwner[i] is the machine owning G.Edges[i].
	EdgeOwner []int32
	// LocalEdges[p] lists the indices of edges owned by machine p.
	LocalEdges [][]int32
	// ReplicaMask[v] has bit p set when vertex v has a replica on machine p.
	ReplicaMask []uint64
	// Master[v] is the machine holding vertex v's master replica.
	Master []int32
	// MasterVerts[p] lists the vertices mastered on machine p.
	MasterVerts [][]graph.VertexID

	// Compiled machine-local gather layouts (see machineBlocks). The
	// in-direction blocks are built at NewPlacement time; the both-direction
	// blocks double the record count and are compiled on first use.
	inBlocks   []machineBlocks
	bothBlocks []machineBlocks
	bothOnce   sync.Once
}

// machineBlocks is one machine's compiled gather layout: its local edges
// expanded into gather records (from, into) and grouped twice.
//
// byDst groups records by gather destination, so the engine's dense sweep is
// a single sequential pass over contiguous [dst | src...] runs with no
// indirection through g.Edges, and the per-destination bookkeeping the
// accountant needs (contributions per destination, one partial per remote
// master) falls out of the group boundaries for free. Records within a group
// keep local-edge order, so per-destination Sum order — and therefore
// floating-point results — is bit-identical to a walk of LocalEdges.
//
// bySrc groups the same records by gather source, giving the sparse-frontier
// sweep O(log K) lookup of an active vertex's local records so supersteps
// with small frontiers skip inactive edges entirely.
type machineBlocks struct {
	byDst graph.Grouped
	bySrc graph.Grouped
	// remote[i] reports that byDst.Keys[i]'s master is on another machine,
	// precomputing the PartialsOut test of the gather hot loop.
	remote []bool
}

// blockCompiler carries one worker's reusable compile workspace: the |V|
// counting-sort scratch and the record staging slices, allocated once per
// worker instead of once per machine.
type blockCompiler struct {
	pl                                 *Placement
	scratch                            []int32
	dstKeys, srcKeys, dstVals, srcVals []graph.VertexID
}

// compile expands machine p's local edges into gather records for the given
// direction and groups them. For GatherIn each edge (u,v) yields one record
// v←u; for GatherBoth it yields v←u then u←v, matching the reference engine's
// per-edge gather order so stable grouping preserves per-destination
// accumulation order exactly.
func (c *blockCompiler) compile(p int, both bool) machineBlocks {
	pl := c.pl
	dstKeys, dstVals := c.dstKeys[:0], c.dstVals[:0]
	srcKeys, srcVals := c.srcKeys[:0], c.srcVals[:0]
	for _, ei := range pl.LocalEdges[p] {
		e := pl.G.Edges[ei]
		dstKeys = append(dstKeys, e.Dst)
		dstVals = append(dstVals, e.Src)
		srcKeys = append(srcKeys, e.Src)
		srcVals = append(srcVals, e.Dst)
		if both {
			dstKeys = append(dstKeys, e.Src)
			dstVals = append(dstVals, e.Dst)
			srcKeys = append(srcKeys, e.Dst)
			srcVals = append(srcVals, e.Src)
		}
	}
	c.dstKeys, c.dstVals = dstKeys, dstVals
	c.srcKeys, c.srcVals = srcKeys, srcVals
	var b machineBlocks
	b.byDst = graph.GroupPairs(dstKeys, dstVals, c.scratch)
	b.bySrc = graph.GroupPairs(srcKeys, srcVals, c.scratch)
	b.remote = make([]bool, len(b.byDst.Keys))
	for i, d := range b.byDst.Keys {
		b.remote[i] = pl.Master[d] != int32(p)
	}
	return b
}

// compileBlocks builds every machine's gather layout. Blocks are mutually
// independent — each reads only LocalEdges[p], the shared graph and the
// master table — so they compile through the shared work-stealing loop, one
// machine block per task, with bit-identical output at any worker count.
// Compile workspaces are per worker (each holds a |V| counting-sort scratch,
// so the worker count — at most one per block; NewPlacement asks for one per
// CPU — also caps compile memory), created lazily so only workers that
// actually win a task pay for one.
func (pl *Placement) compileBlocks(both bool, workers int) []machineBlocks {
	blocks := make([]machineBlocks, pl.M)
	workers = max(1, min(workers, pl.M))
	compilers := make([]*blockCompiler, workers)
	stealTasks(workers, pl.M, func(w, p int) {
		c := compilers[w]
		if c == nil {
			c = &blockCompiler{pl: pl, scratch: make([]int32, pl.G.NumVertices)}
			compilers[w] = c
		}
		blocks[p] = c.compile(p, both)
	})
	return blocks
}

// blocks returns the compiled gather layout for the requested direction.
func (pl *Placement) blocks(both bool) []machineBlocks {
	if !both {
		return pl.inBlocks
	}
	pl.bothOnce.Do(func() { pl.bothBlocks = pl.compileBlocks(true, runtime.GOMAXPROCS(0)) })
	return pl.bothBlocks
}

// NewPlacement finalizes an edge assignment. owner must assign every edge of
// g to a machine in [0, m).
func NewPlacement(g *graph.Graph, owner []int32, m int) (*Placement, error) {
	if m < 1 || m > MaxMachines {
		return nil, fmt.Errorf("engine: machine count %d outside [1, %d]", m, MaxMachines)
	}
	if len(owner) != len(g.Edges) {
		return nil, fmt.Errorf("engine: owner length %d != edge count %d", len(owner), len(g.Edges))
	}
	pl := &Placement{
		G:           g,
		M:           m,
		EdgeOwner:   owner,
		LocalEdges:  make([][]int32, m),
		ReplicaMask: make([]uint64, g.NumVertices),
		Master:      make([]int32, g.NumVertices),
		MasterVerts: make([][]graph.VertexID, m),
	}
	counts := make([]int64, m)
	for i, p := range owner {
		if p < 0 || int(p) >= m {
			return nil, fmt.Errorf("engine: edge %d assigned to machine %d outside [0, %d)", i, p, m)
		}
		counts[p]++
		e := g.Edges[i]
		pl.ReplicaMask[e.Src] |= 1 << uint(p)
		pl.ReplicaMask[e.Dst] |= 1 << uint(p)
	}
	for p := range pl.LocalEdges {
		pl.LocalEdges[p] = make([]int32, 0, counts[p])
	}
	for i, p := range owner {
		pl.LocalEdges[p] = append(pl.LocalEdges[p], int32(i))
	}
	// Master selection: each vertex's master is the owner of one of its
	// incident edges, picked by a deterministic reservoir sample over the
	// incidences. A machine holding a fraction f of v's edges becomes master
	// with probability f, so master load follows the (possibly CCR-weighted)
	// edge distribution — the PowerLyra-style locality heuristic that keeps
	// vertex-phase work (applies, coloring sweeps) aligned with the edge
	// shares the partitioner produced. Vertices with no edges are hashed
	// across all machines.
	incidences := make([]int32, g.NumVertices)
	pickMaster := func(v graph.VertexID, p int32) {
		incidences[v]++
		if rng.Hash2(uint64(v), uint64(incidences[v]))%uint64(incidences[v]) == 0 {
			pl.Master[v] = p
		}
	}
	for v := range pl.Master {
		pl.Master[v] = -1
	}
	for i, p := range owner {
		e := g.Edges[i]
		pickMaster(e.Src, p)
		pickMaster(e.Dst, p)
	}
	for v := range pl.Master {
		if pl.Master[v] < 0 {
			pl.Master[v] = int32(rng.Hash64(uint64(v)) % uint64(m))
		}
	}
	for v, p := range pl.Master {
		pl.MasterVerts[p] = append(pl.MasterVerts[p], graph.VertexID(v))
	}
	pl.inBlocks = pl.compileBlocks(false, runtime.GOMAXPROCS(0))
	return pl, nil
}

// nthSetBit returns the position of the k-th (0-based) set bit of mask.
func nthSetBit(mask uint64, k int) int {
	for i := 0; i < k; i++ {
		mask &= mask - 1
	}
	return bits.TrailingZeros64(mask)
}

// Replicas returns the total number of vertex replicas (masters + mirrors).
func (pl *Placement) Replicas() int64 {
	var total int64
	for _, mask := range pl.ReplicaMask {
		total += int64(bits.OnesCount64(mask))
	}
	return total
}

// ReplicationFactor returns average replicas per vertex, the standard
// vertex-cut quality metric ("mirrors" in the paper's Section II-B).
// Vertices with no edges count one replica (their master).
func (pl *Placement) ReplicationFactor() float64 {
	if pl.G.NumVertices == 0 {
		return 0
	}
	var total int64
	for _, mask := range pl.ReplicaMask {
		c := bits.OnesCount64(mask)
		if c == 0 {
			c = 1
		}
		total += int64(c)
	}
	return float64(total) / float64(pl.G.NumVertices)
}

// EdgeCounts returns the number of edges owned by each machine.
func (pl *Placement) EdgeCounts() []int64 {
	counts := make([]int64, pl.M)
	for p, local := range pl.LocalEdges {
		counts[p] = int64(len(local))
	}
	return counts
}

// Imbalance returns max load divided by the weighted ideal load for the given
// target shares (which must sum to ~1). With uniform shares this is the
// classic load-imbalance factor; with CCR shares it measures how well the
// partition hit the heterogeneity target.
func (pl *Placement) Imbalance(shares []float64) float64 {
	counts := pl.EdgeCounts()
	total := float64(len(pl.G.Edges))
	if total == 0 {
		return 1
	}
	worst := 0.0
	for p, c := range counts {
		share := shares[p]
		if share <= 0 {
			share = 1e-12
		}
		ratio := float64(c) / (total * share)
		if ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// SingleMachine places every edge of g on one machine, the layout used by the
// profiling runs of Section III-B (each profiling set executes on one machine
// "without communication interference").
func SingleMachine(g *graph.Graph) *Placement {
	owner := make([]int32, len(g.Edges))
	pl, err := NewPlacement(g, owner, 1)
	if err != nil {
		// Unreachable: a single-machine assignment is always valid.
		panic(err)
	}
	return pl
}
