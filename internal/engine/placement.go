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
	"sync"

	"proxygraph/internal/graph"
	"proxygraph/internal/par"
	"proxygraph/internal/rng"
)

// MaxMachines bounds cluster size; replica sets are stored as 64-bit masks.
const MaxMachines = 64

// Machine is a machine id in [0, MaxMachines): the element type of every
// per-edge owner vector and per-vertex master table.
type Machine uint8

// The build fails here if MaxMachines ever outgrows a Machine.
const _ = Machine(MaxMachines - 1)

// Placement is a finalized vertex-cut: every edge owned by one machine, every
// vertex replicated onto the machines its edges touch, one replica per vertex
// designated master (PowerGraph's finalization step). NewPlacement builds it.
type Placement struct {
	G *graph.Graph
	// M is the number of machines.
	M int
	// EdgeOwner[i] is the machine owning G.Edges[i].
	EdgeOwner []Machine
	// ReplicaMask[v] has bit p set when vertex v has a replica on machine p.
	ReplicaMask []uint64
	// Master[v] is the machine holding vertex v's master replica.
	Master []Machine
	// MasterVerts[p] lists the vertices mastered on machine p.
	MasterVerts [][]graph.VertexID
	// edgeCount[p] is the number of edges machine p owns, tallied by
	// NewPlacement's owner scan.
	edgeCount [MaxMachines]int32

	// Four per-edge structures are built lazily, each by the first reader
	// that asks for it:
	//
	//   - the local edge index, 4 B per edge, on the first LocalEdges call;
	//   - GatherIn byDst, 4 B per edge, on the first GatherIn run;
	//   - GatherIn bySrc, 4 B per edge, on the first sparse GatherIn step;
	//   - GatherBoth byDst, 8 B per edge, on the first GatherBoth run — also
	//     GatherBoth's bySrc (see blockCompiler.compileBoth).
	//
	// Each gather layout adds per machine one key and one offset per distinct
	// key, and the byDst ones a visit byte; FootprintBound charges all four.
	// Most placements only ever serve one gather direction, the applications
	// with loops of their own (SSSP, KCore, Coloring, Triangle Count)
	// neither, and PageRank, the one shipped GatherIn app, applies every
	// vertex every step and never takes a sparse one. Triangle Count, the
	// straggler migrator and RunReference walk the edge index; SSSP walks
	// neither the index nor a grouping, only the edge stream and EdgeOwner.
	// The block compiles group each machine's edges from EdgeOwner in a
	// transient arena of their own, so a placement served only by engine
	// programs and SSSP never holds the edge index.
	//
	// local holds the edge index (see LocalEdges), compiled each direction's
	// byDst (see blocks), inSources GatherIn's bySrc (see sources), each
	// behind its own Once.
	local struct {
		once  sync.Once
		edges [][]int32
	}
	compiled [2]struct {
		once   sync.Once
		blocks []machineBlocks
	}
	inSources struct {
		once  sync.Once
		bySrc []graph.Grouped
	}
}

// LocalEdges returns, for every machine p, the indices of the edges it owns in
// increasing order, building the index on first call; concurrent callers share
// the result. The lists are windows of one arena, machine by machine, each
// with len == cap, so appending to one never writes into the next. Callers
// must not modify them.
func (pl *Placement) LocalEdges() [][]int32 {
	c := &pl.local
	c.once.Do(func() {
		var ix ownerIndex
		ix.build(pl)
		c.edges = make([][]int32, pl.M)
		for p := range c.edges {
			c.edges[p] = ix.machine(p)
		}
	})
	return c.edges
}

// ownerIndex groups a placement's edge indices by owning machine, in increasing
// order within each machine: machine p's edges are edges[at[p]:at[p+1]].
type ownerIndex struct {
	edges []int32
	at    [MaxMachines + 1]int32
}

// build fills ix from pl.EdgeOwner with a counting sort whose counts
// NewPlacement already took: prefix-sum, then place. The placing loop runs on
// locals, not through ix, so no store reloads ix.
func (ix *ownerIndex) build(pl *Placement) {
	owner := pl.EdgeOwner
	var at [MaxMachines + 1]int32
	for p := 0; p < pl.M; p++ {
		at[p+1] = at[p] + pl.edgeCount[p]
	}
	ix.at = at
	edges := make([]int32, len(owner))
	for i, p := range owner {
		edges[at[p]] = int32(i)
		at[p]++
	}
	ix.edges = edges
}

// machine returns machine p's edge indices, capped at their own length.
func (ix *ownerIndex) machine(p int) []int32 {
	return ix.edges[ix.at[p]:ix.at[p+1]:ix.at[p+1]]
}

// machineBlocks is one machine's destination-grouped gather layout: its local
// edges expanded into gather records (from, into) and grouped by gather
// destination, so the engine's dense sweep reads contiguous [dst | src...]
// runs with no indirection through g.Edges, and the per-destination
// bookkeeping the accountant needs (contributions per destination, one
// partial per remote master) falls out of the group boundaries for free.
// Records within a group keep local-edge order, so per-destination fold
// order — and therefore floating-point results — is bit-identical to a walk
// of LocalEdges.
//
// The same records grouped by gather source give the sparse-frontier sweep
// O(log K) lookup of an active vertex's local records, so supersteps with
// small frontiers skip inactive edges entirely.
//
// The dense sweep visits the groups through visit, one byte per group: byDst's
// groups taken in windows of visitWindow consecutive groups, each window's
// groups listed by size, smallest first (sizes 1 to visitClasses-1 each a
// class, larger ones sharing the last), stably. A byte's low 7 bits are its
// group's index within the window and its top bit, visitRemote, reports that
// the group's key is mastered on another machine — the PartialsOut test of
// the gather hot loop. Runs of equal-sized groups keep the exit branch of
// each group's fold loop predictable, and the sweep still moves through the
// block window by window.
type machineBlocks struct {
	byDst graph.Grouped
	visit []uint8
}

const (
	// visitWindow is the number of consecutive groups a visit byte's 7-bit
	// index spans.
	visitWindow = 128
	// visitClasses is the number of size classes a window is sorted by.
	visitClasses = 16
	// visitRemote is a visit byte's remote-master flag.
	visitRemote = 0x80
)

// blockCompiler is one worker's compile workspace: a counting-sort Grouper,
// allocated once per worker instead of once per machine, and the compile's
// shared, read-only grouping of edges by owner.
type blockCompiler struct {
	pl    *Placement
	local *ownerIndex
	gr    graph.Grouper
}

// compileIn and compileBoth group machine p's gather records for their
// direction by destination, in two passes over its local edges — count, then
// place — reading the records straight from the edge list. For GatherIn each
// edge (u,v) yields one record v←u; for GatherBoth it yields v←u then u←v,
// matching the reference engine's per-edge gather order, and the stable
// grouping preserves per-destination accumulation order exactly.
//
// In the both-direction record set every record v←u has its mirror u←v next
// to it, so grouping by destination and grouping by source append the same
// companions to the same groups in the same edge order: the two groupings are
// equal, and GatherBoth's source grouping is its byDst.
func (c *blockCompiler) compileIn(p int) machineBlocks {
	gr, edges, local := &c.gr, c.pl.G.Edges, c.local.machine(p)
	for _, ei := range local {
		gr.Count(edges[ei].Dst)
	}
	gr.Layout()
	for _, ei := range local {
		e := edges[ei]
		gr.Place(e.Dst, e.Src)
	}
	return c.done(p)
}

func (c *blockCompiler) compileBoth(p int) machineBlocks {
	gr, edges, local := &c.gr, c.pl.G.Edges, c.local.machine(p)
	for _, ei := range local {
		e := edges[ei]
		gr.Count(e.Dst)
		gr.Count(e.Src)
	}
	gr.Layout()
	for _, ei := range local {
		e := edges[ei]
		gr.Place(e.Dst, e.Src)
		gr.Place(e.Src, e.Dst)
	}
	return c.done(p)
}

// done takes machine p's finished destination grouping and builds its visit
// order, window by window, with a stable counting sort on the size class:
// count, prefix-sum, place.
func (c *blockCompiler) done(p int) machineBlocks {
	g := c.gr.Done()
	keys, offs, master := g.Keys, g.Offs, c.pl.Master
	visit := make([]uint8, len(keys))
	for base := 0; base < len(keys); base += visitWindow {
		end := min(base+visitWindow, len(keys))
		var at [visitClasses + 1]uint8
		for i := base; i < end; i++ {
			at[min(offs[i+1]-offs[i], visitClasses)]++
		}
		for k := 1; k <= visitClasses; k++ {
			at[k] += at[k-1]
		}
		for i := base; i < end; i++ {
			k := min(offs[i+1]-offs[i], visitClasses) - 1
			v := uint8(i - base)
			if master[keys[i]] != Machine(p) {
				v |= visitRemote
			}
			visit[base+int(at[k])] = v
			at[k]++
		}
	}
	return machineBlocks{byDst: g, visit: visit}
}

// groupBySource groups machine p's GatherIn records v←u by source u, in the
// same two passes as compileIn.
func (c *blockCompiler) groupBySource(p int) graph.Grouped {
	gr, edges, local := &c.gr, c.pl.G.Edges, c.local.machine(p)
	for _, ei := range local {
		gr.Count(edges[ei].Src)
	}
	gr.Layout()
	for _, ei := range local {
		e := edges[ei]
		gr.Place(e.Src, e.Dst)
	}
	return gr.Done()
}

// perMachine compiles every machine's layout through par.Tasks, one machine
// per task, handing each its worker's compile workspace. It first groups the
// edges by owner into a transient arena, 4 B per edge, that lives only as long
// as the compile, so compiling never builds the placement's own LocalEdges.
// Machines are mutually independent — a grouping reads only machine p's
// edges, the shared graph and the master table — so output is bit-identical
// at any worker count. Each workspace holds |V|-sized counting arrays, so the
// worker count — at most one per machine and one per CPU — also caps compile
// memory, and its arrays are made on its worker's first task, so only workers
// that actually win a task pay for them. compile is a method expression, so
// passing it allocates nothing.
func perMachine[T any](pl *Placement, compile func(c *blockCompiler, p int) T) []T {
	out := make([]T, pl.M)
	var local ownerIndex
	local.build(pl)
	cs := make([]blockCompiler, par.Workers(pl.M))
	par.Tasks(pl.M, func(w, p int) {
		c := &cs[w]
		if c.pl == nil {
			*c = blockCompiler{pl: pl, local: &local, gr: graph.NewGrouper(pl.G.NumVertices)}
		}
		out[p] = compile(c, p)
	})
	return out
}

// compileBlocks builds every machine's destination-grouped layout.
func (pl *Placement) compileBlocks(both bool) []machineBlocks {
	if both {
		return perMachine(pl, (*blockCompiler).compileBoth)
	}
	return perMachine(pl, (*blockCompiler).compileIn)
}

// blocks returns the destination-grouped layout for the requested direction,
// compiling it on first use; concurrent runs over one placement share the
// result.
func (pl *Placement) blocks(both bool) []machineBlocks {
	c := &pl.compiled[0]
	if both {
		c = &pl.compiled[1]
	}
	c.once.Do(func() { c.blocks = pl.compileBlocks(both) })
	return c.blocks
}

// sources returns every machine's GatherIn records grouped by source, which a
// GatherIn run asks for on its first sparse superstep, compiling them on
// first use; concurrent runs over one placement share the result.
func (pl *Placement) sources() []graph.Grouped {
	c := &pl.inSources
	c.once.Do(func() { c.bySrc = perMachine(pl, (*blockCompiler).groupBySource) })
	return c.bySrc
}

// FootprintBound returns an upper bound on the bytes pl holds once all four
// lazily built structures exist (see Placement.local), not counting the graph
// it finalizes, which its caller owns:
//
//   - per edge, 21 B: EdgeOwner 1 B, the LocalEdges index 4 B, and the
//     gather records, 4 + 4 B in the two GatherIn groupings and 8 B in
//     GatherBoth's;
//   - per vertex, 13 B: ReplicaMask 8 B, Master 1 B and MasterVerts 4 B;
//   - per replica, 26 B: a machine's distinct keys in any grouping are
//     vertices replicated on it, each costing a 4 B key and a 4 B offset in
//     each of the three groupings plus a visit byte in the two byDst ones;
//   - per machine, under 512 B: slice headers and each grouping's closing
//     offset.
//
// It is a bound for a cache's byte budget (see workload.PlacementCache), so
// it costs one pass over the replica masks and never builds anything.
func (pl *Placement) FootprintBound() int64 {
	edges := int64(len(pl.EdgeOwner))
	verts := int64(len(pl.Master))
	return 21*edges + 13*verts + 26*pl.Replicas() + 512*int64(pl.M)
}

// NewPlacement finalizes an edge assignment. owner must assign every edge of
// g to a machine in [0, m).
func NewPlacement(g *graph.Graph, owner []Machine, m int) (*Placement, error) {
	if m < 1 || m > MaxMachines {
		return nil, fmt.Errorf("engine: machine count %d outside [1, %d]", m, MaxMachines)
	}
	if len(owner) != len(g.Edges) {
		return nil, fmt.Errorf("engine: owner length %d != edge count %d", len(owner), len(g.Edges))
	}
	n := g.NumVertices
	pl := &Placement{
		G:           g,
		M:           m,
		EdgeOwner:   owner,
		ReplicaMask: make([]uint64, n),
		Master:      make([]Machine, n),
		MasterVerts: make([][]graph.VertexID, m),
	}
	// One scan of the owner vector validates it, marks replicas and counts
	// edges per machine and the incidences per vertex that master selection
	// samples from. The counts are dead once the masters are chosen, and
	// there is one per vertex as there is one MasterVerts entry per vertex,
	// so their array becomes the MasterVerts arena.
	edges := g.Edges
	incidences := make([]graph.VertexID, n)
	for i, p := range owner {
		if int(p) >= m {
			return nil, fmt.Errorf("engine: edge %d assigned to machine %d outside [0, %d)", i, p, m)
		}
		pl.edgeCount[p]++
		e := edges[i]
		pl.ReplicaMask[e.Src] |= 1 << uint(p)
		pl.ReplicaMask[e.Dst] |= 1 << uint(p)
		incidences[e.Src]++
		incidences[e.Dst]++
	}
	// Master selection: each vertex's master is the owner of one of its
	// incident edges, picked by a deterministic reservoir sample over the
	// incidences. A machine holding a fraction f of v's edges becomes master
	// with probability f, so master load follows the (possibly CCR-weighted)
	// edge distribution — the PowerLyra-style locality heuristic that keeps
	// vertex-phase work (applies, coloring sweeps) aligned with the edge
	// shares the partitioner produced. Vertices with no edges are hashed
	// across all machines.
	//
	// The sample is resolved per vertex first (which incidence wins depends
	// only on the vertex and its incidence count): each count is overwritten
	// with its winner's number, and the edge scan below counts down to it.
	// A countdown hits zero exactly once, at the winner; the decrements after
	// it wrap, harmlessly, since nothing reads the counts again. A vertex
	// whose edges all sit on one machine has that machine as master whichever
	// incidence wins, so it skips the sample: its countdown starts at zero and
	// wraps at the first decrement, never to reach zero again.
	winner := incidences
	for v, k := range incidences {
		switch mask := pl.ReplicaMask[v]; {
		case k == 0:
			pl.Master[v] = Machine(rng.Hash64(uint64(v)) % uint64(m))
		case mask&(mask-1) == 0:
			pl.Master[v] = Machine(bits.TrailingZeros64(mask))
			winner[v] = 0
		default:
			winner[v] = sampledIncidence(uint64(v), k)
		}
	}
	for i, p := range owner {
		e := edges[i]
		// A vertex's incidences are numbered in stream order, Src before Dst.
		if winner[e.Src]--; winner[e.Src] == 0 {
			pl.Master[e.Src] = p
		}
		if winner[e.Dst]--; winner[e.Dst] == 0 {
			pl.Master[e.Dst] = p
		}
	}
	masterCount := make([]int32, m)
	for _, p := range pl.Master {
		masterCount[p]++
	}
	verts := incidences
	for p, at := 0, int32(0); p < m; p++ {
		pl.MasterVerts[p] = verts[at : at : at+masterCount[p]]
		at += masterCount[p]
	}
	for v, p := range pl.Master {
		pl.MasterVerts[p] = append(pl.MasterVerts[p], graph.VertexID(v))
	}
	return pl, nil
}

// sampledIncidence returns which of vertex v's k >= 1 incidences (1-based) a
// reservoir sample of size one keeps: incidence i replaces the current pick
// when Hash2(v, i) mod i is zero, so the survivor is the largest such i, found
// from the top without visiting the rest (i = 1 always replaces).
func sampledIncidence(v uint64, k graph.VertexID) graph.VertexID {
	for i := uint64(k); i > 1; i-- {
		if rng.Hash2(v, i)%i == 0 {
			return graph.VertexID(i)
		}
	}
	return 1
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
	for p := range counts {
		counts[p] = int64(pl.edgeCount[p])
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
	owner := make([]Machine, len(g.Edges))
	pl, err := NewPlacement(g, owner, 1)
	if err != nil {
		// Unreachable: a single-machine assignment is always valid.
		panic(err)
	}
	return pl
}
