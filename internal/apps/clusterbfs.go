package apps

import (
	"math/bits"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// MaxBatchSources is the number of BFS roots one packed traversal carries:
// one bit lane per source in a uint64 word.
const MaxBatchSources = 64

// ClusterState is ClusterBFS's per-vertex state: a word of reach bits (bit j
// set once the vertex has been reached from source j) plus the hop distance
// per lane. Only the word moves through gather: Fold reads it in place from
// the engine's value array and the accumulator is the bare uint64, so gather
// bandwidth scales with batch size, not with the 256 bytes of per-lane
// distance bookkeeping, which only Apply reads and writes. The struct is plain
// old data, so it checkpoints and fuzzes through the engine's binary codec
// unchanged.
type ClusterState struct {
	// Seen has bit j set when the vertex is reachable from Sources[j].
	Seen uint64
	// Dist[j] is the hop distance from Sources[j], unreached (-1) until
	// bit j lands.
	Dist [MaxBatchSources]int32
}

// ClusterBFS runs a bit-parallel batched breadth-first search: up to 64
// sources traverse the undirected structure in one engine pass, packed one
// bit lane per source. Each superstep ORs neighbor reach words into every
// frontier vertex, so a single gather advances all lanes at once — the
// Cluster-BFS idea layered on the engine's hybrid sparse/dense frontier,
// whose per-superstep direction choice reacts to the union frontier (any
// lane active keeps the vertex hot). Distances per lane are bit-identical
// to running BFS once per source; the differential suite pins exactly that
// against the reference engine and at every worker count.
type ClusterBFS struct {
	// Sources are the batched roots, one bit lane each (at most
	// MaxBatchSources, all distinct and in range — Run rejects anything else
	// with a typed error).
	Sources []graph.VertexID
	// MaxIters caps the superstep count.
	MaxIters int
}

// NewClusterBFS returns a full 64-lane batch rooted at vertices 0..63.
func NewClusterBFS() *ClusterBFS {
	srcs := make([]graph.VertexID, MaxBatchSources)
	for i := range srcs {
		srcs[i] = graph.VertexID(i)
	}
	return &ClusterBFS{Sources: srcs, MaxIters: 1000}
}

// Name implements App.
func (c *ClusterBFS) Name() string { return "cluster_bfs" }

// Coeffs implements engine.Program. The gather side is cheaper per edge than
// scalar BFS — it moves one 8-byte word and ORs it — while apply pays for the
// popcount-and-scatter over fresh lanes and the 264-byte vertex state raises
// the per-update broadcast cost. This is the profile the proxy model has to
// predict for bitset-state applications.
func (c *ClusterBFS) Coeffs() engine.CostCoeffs {
	return engine.CostCoeffs{
		OpsPerGather:    30,
		BytesPerGather:  24,
		OpsPerApply:     120,
		BytesPerApply:   320,
		OpsPerVertex:    25,
		BytesPerVertex:  16,
		SerialFrac:      0.03,
		StepOverheadOps: 2e3,
		AccumBytes:      8,
		ValueBytes:      264,
	}
}

// Direction implements engine.Program: like BFS, the batch traverses the
// undirected structure.
func (c *ClusterBFS) Direction() engine.Direction { return engine.GatherBoth }

// ApplyAll implements engine.Program.
func (c *ClusterBFS) ApplyAll() bool { return false }

// MaxSupersteps implements engine.Program.
func (c *ClusterBFS) MaxSupersteps() int { return c.MaxIters }

// Init implements engine.Program: a source starts with its own lane bit set
// at distance 0, every other lane unreached. The 264-byte states are written
// where they live.
func (c *ClusterBFS) Init(vals []ClusterState, g *graph.Graph) {
	for v := range vals {
		dist := &vals[v].Dist
		for j := range dist {
			dist[j] = unreached
		}
	}
	for j, s := range c.Sources {
		if j >= MaxBatchSources {
			break
		}
		if int(s) < len(vals) {
			vals[s].Seen |= 1 << uint(j)
			vals[s].Dist[j] = 0
		}
	}
}

// Fold implements engine.Program: OR the active sources' reach words into the
// accumulator. OR is exactly associative and commutative, so the reference
// engine and Run agree to the last bit even when sparse supersteps
// re-associate the accumulation order, and 0|x is x, so an empty accumulator
// starts from zero — the word an inactive source is masked to (see activeBit).
// Only the 8-byte word of each 264-byte state is read.
func (c *ClusterBFS) Fold(acc uint64, has bool, vals []ClusterState, srcs []graph.VertexID, act []bool) (uint64, int32) {
	var seen uint64
	if has {
		seen = acc
	}
	var n uint32
	if act == nil {
		n = uint32(len(srcs))
		for _, s := range srcs {
			seen |= vals[s].Seen
		}
	} else {
		for _, s := range srcs {
			on := activeBit(act[s])
			seen |= vals[s].Seen & -uint64(on)
			n += on
		}
	}
	if n == 0 {
		seen = acc
	}
	return seen, int32(n)
}

// Apply implements engine.Program: lanes arriving for the first time stamp
// the current hop distance; a vertex signals its neighbors only when at
// least one fresh lane landed, exactly the per-source frontier rule of
// scalar BFS, folded over 64 lanes with one AND-NOT. Only the fresh lanes of
// the 264-byte state are written, where it lives.
func (c *ClusterBFS) Apply(vs []graph.VertexID, vals []ClusterState, acc []uint64, has []bool, rt *engine.Runtime, signal []graph.VertexID) []graph.VertexID {
	d := int32(rt.Step) + 1
	for _, v := range vs {
		if !has[v] {
			continue
		}
		val := &vals[v]
		fresh := acc[v] &^ val.Seen
		if fresh == 0 {
			continue
		}
		val.Seen |= fresh
		for m := fresh; m != 0; m &= m - 1 {
			val.Dist[bits.TrailingZeros64(m)] = d
		}
		signal = append(signal, v)
	}
	return signal
}

// ClusterLabels is ClusterBFS's output: the packed per-vertex reach words
// and per-lane distances, the label set both batch workloads (the landmark
// distance oracle and k-seed reachability) read their answers from.
type ClusterLabels struct {
	// Sources maps bit lane j to its root vertex.
	Sources []graph.VertexID
	// States holds every vertex's packed state, indexed by vertex ID.
	States []ClusterState
}

// K returns the batch width (number of lanes in use).
func (l *ClusterLabels) K() int { return len(l.Sources) }

// Reached reports whether vertex v was reached from source lane j.
func (l *ClusterLabels) Reached(v graph.VertexID, j int) bool {
	return l.States[v].Seen&(1<<uint(j)) != 0
}

// Dist returns the hop distance from source lane j to vertex v, or -1 when v
// is unreachable from that root.
func (l *ClusterLabels) Dist(v graph.VertexID, j int) int32 { return l.States[v].Dist[j] }

// Run implements App. The Output is a *ClusterLabels. The source set is
// validated up front: empty, oversized, duplicated or out-of-range source sets
// return a typed error before the engine starts.
func (c *ClusterBFS) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return c.run(pl, cl, engine.Options{})
}

func (c *ClusterBFS) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	return runBatch(c, c.Sources, pl, cl, opts, func(l *ClusterLabels) *ClusterLabels { return l })
}
