package apps

import (
	"math/bits"
	"sort"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// This file holds the two batch-analytics workloads built on ClusterBFS: a
// landmark-based distance oracle and k-seed reachability. Both run ONE packed
// engine pass and then answer arbitrarily many queries from the labels — the
// "many queries per graph pass" scenario class the batched traversal opens.

// batchProgram renames an inner ClusterBFS program so the accountant, traces
// and CCR pool see the workload's own name while the packed traversal logic
// stays shared.
type batchProgram struct {
	*ClusterBFS
	name string
}

// Name implements engine.Program.
func (p batchProgram) Name() string { return p.name }

// runBatch validates the source set under the workload's name, executes the
// packed traversal prog over it and attaches the output the workload derives
// from the labels.
func runBatch[O any](prog engine.Program[ClusterState, uint64], sources []graph.VertexID, pl *engine.Placement, cl *cluster.Cluster, opts engine.Options, output func(*ClusterLabels) O) (*engine.Result, error) {
	if err := validateSources(prog.Name(), pl.G.NumVertices, sources, MaxBatchSources); err != nil {
		return nil, err
	}
	return runGAS(prog, pl, cl, opts, func(states []ClusterState) O {
		return output(&ClusterLabels{Sources: append([]graph.VertexID(nil), sources...), States: states})
	})
}

// batchOf wraps sources in an inner ClusterBFS program named after the
// workload running it.
func batchOf(name string, sources []graph.VertexID, maxIters int) batchProgram {
	if maxIters <= 0 {
		maxIters = 1000
	}
	return batchProgram{&ClusterBFS{Sources: sources, MaxIters: maxIters}, name}
}

// LandmarkOracle builds a landmark-based distance oracle: the K
// highest-degree vertices become BFS roots of one packed traversal, and the
// resulting labels answer point-to-point distance queries by routing through
// the best landmark. Hub landmarks lie on many shortest paths in power-law
// graphs, which keeps the triangle-inequality upper bound tight.
type LandmarkOracle struct {
	// K is the number of landmarks (1..MaxBatchSources).
	K int
	// MaxIters caps the traversal supersteps.
	MaxIters int
}

// NewLandmarkOracle returns a 16-landmark oracle.
func NewLandmarkOracle() *LandmarkOracle { return &LandmarkOracle{K: 16, MaxIters: 1000} }

// Name implements App.
func (o *LandmarkOracle) Name() string { return "landmark_oracle" }

// Coeffs implements App: the packed traversal is ClusterBFS's.
func (o *LandmarkOracle) Coeffs() engine.CostCoeffs { return (&ClusterBFS{}).Coeffs() }

// Landmarks returns the K highest-total-degree vertices of g, ties broken
// toward the lower vertex ID — a pure function of the graph, so cached
// placements and replayed jobs pick identical roots.
func (o *LandmarkOracle) Landmarks(g *graph.Graph) []graph.VertexID {
	deg := g.TotalDegrees()
	ids := make([]graph.VertexID, g.NumVertices)
	for v := range ids {
		ids[v] = graph.VertexID(v)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	k := o.K
	if k > len(ids) {
		k = len(ids)
	}
	if k < 0 {
		k = 0
	}
	return ids[:k]
}

// Run implements App. The Output is a *DistanceOracle.
func (o *LandmarkOracle) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return o.run(pl, cl, engine.Options{})
}

func (o *LandmarkOracle) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	p := batchOf(o.Name(), o.Landmarks(pl.G), o.MaxIters)
	return runBatch(p, p.Sources, pl, cl, opts, func(l *ClusterLabels) *DistanceOracle { return &DistanceOracle{Labels: l} })
}

// DistanceOracle holds the packed landmark labels from which point-to-point
// hop-distance queries are answered without touching the graph again.
// Production returns the labels and stops there: proxygraph run prints no
// app's output, so only tests query them (Query in clusterbfs_test.go).
type DistanceOracle struct {
	// Labels are the packed per-vertex landmark distances.
	Labels *ClusterLabels
}

// KSeedReach computes batched reachability from k seed vertices: one packed
// traversal labels every vertex with the word of seeds that reach it. The
// output answers "which seeds reach v", "how many vertices does seed j
// cover" and "what does the union cover" — the influence/coverage queries of
// seed-set analytics — without per-seed passes.
type KSeedReach struct {
	// Seeds are the reachability roots (1..MaxBatchSources, distinct).
	Seeds []graph.VertexID
	// MaxIters caps the traversal supersteps.
	MaxIters int
}

// NewKSeedReach returns a 32-seed reachability batch rooted at vertices
// 0..31.
func NewKSeedReach() *KSeedReach {
	seeds := make([]graph.VertexID, 32)
	for i := range seeds {
		seeds[i] = graph.VertexID(i)
	}
	return &KSeedReach{Seeds: seeds, MaxIters: 1000}
}

// Name implements App.
func (r *KSeedReach) Name() string { return "kseed_reach" }

// Coeffs implements App: the packed traversal is ClusterBFS's.
func (r *KSeedReach) Coeffs() engine.CostCoeffs { return (&ClusterBFS{}).Coeffs() }

// Run implements App. The Output is a *ReachSummary.
func (r *KSeedReach) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return r.run(pl, cl, engine.Options{})
}

func (r *KSeedReach) run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	return runBatch(batchOf(r.Name(), r.Seeds, r.MaxIters), r.Seeds, pl, cl, opts, summarizeReach)
}

// summarizeReach derives the coverage counts from the packed labels.
func summarizeReach(labels *ClusterLabels) *ReachSummary {
	sum := &ReachSummary{Labels: labels, PerSeed: make([]int, labels.K())}
	for v := range labels.States {
		mask := labels.States[v].Seen
		if mask != 0 {
			sum.Union++
		}
		for m := mask; m != 0; m &= m - 1 {
			sum.PerSeed[bits.TrailingZeros64(m)]++
		}
	}
	return sum
}

// ReachSummary is KSeedReach's output: the packed labels plus the coverage
// counts derived from them.
type ReachSummary struct {
	// Labels are the packed per-vertex reach words (seed j reaches v iff bit
	// j of v's word is set; a seed always reaches itself).
	Labels *ClusterLabels
	// PerSeed[j] counts the vertices seed j reaches (including itself).
	PerSeed []int
	// Union counts the vertices reached by at least one seed.
	Union int
}
