package main

import (
	"fmt"
	"sort"

	"proxygraph/internal/cluster"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
)

// The four workloads, in the order a run over all of them takes.
const (
	coldIngest    = "cold_ingest"
	warmDense     = "warm_dense"
	warmFrontier  = "warm_frontier"
	serviceSteady = "service_steady"
)

var workloadNames = []string{coldIngest, warmDense, warmFrontier, serviceSteady}

// cyclesPerSecond converts the measuring time asked for into a fixed cycle
// count, so that counts per cycle are exact and every run of one command line
// does the same work. The rates were measured on the reference host (2 vCPU
// Firecracker guest); a faster host simply finishes sooner.
var cyclesPerSecond = map[string]float64{
	coldIngest:    13.5,
	warmDense:     14,
	warmFrontier:  13.4,
	serviceSteady: 14,
}

// timedCycles is the cycle count for a measuring time, never below the 200
// samples per class the gated floor needs.
func timedCycles(workload string, seconds int) int {
	n := int(cyclesPerSecond[workload]*float64(seconds) + 0.5)
	if n < gatedMinSamples {
		n = gatedMinSamples
	}
	return n
}

// benchCluster is the four-machine heterogeneous cluster of the engine
// micro-benchmarks: two machine groups a factor of eight apart.
var benchCluster = []string{"c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge"}

// graphScales divide the Table II real-graph specs (amazon, citation,
// social_network, wiki) down to one edge budget per workload: four degree
// shapes of about 41 k edges for the warm workloads (every job a 1–20 ms
// unit), 27 k for cold_ingest, whose cycle ingests and evolves every graph,
// and 22 k for the service's ≈2 ms jobs. The budgets are what lets 200 cycles
// fit the measuring time. Still smaller service graphs would let the control
// plane weigh more, but the thin machines of the cluster get under 5 % of the
// edges, and at 17 k edges that share is so few edges that the partitioning
// seed alone moved sim_s_per_cycle by 4 % from seed to seed. The host's
// last-level cache is 260 MiB, so no feasible graph is DRAM-bound; the sizes
// buy sample count, not memory pressure.
var graphScales = map[string][]int{
	coldIngest:    {120, 640, 2560, 180},
	warmDense:     {80, 425, 1700, 120},
	warmFrontier:  {80, 425, 1700, 120},
	serviceSteady: {144, 768, 3072, 216},
}

// topologySeed generates the graphs, whatever seed the command line gives.
// The run seed decides how each graph is partitioned, how it evolves and in
// which order the service sees its jobs; the graphs themselves are part of the
// benchmark, like the Table II specs they are drawn from. A driver accepts
// this benchmark by the spread of every gated metric over runs with different
// seeds, so inputs that change superstep counts with the seed (a traversal
// one level deeper on one seed's graph than the next's) would force bounds of
// 6–17 % onto sim_s_per_cycle and the allocation counts, which for one set of
// graphs repeat exactly: measured over ten seeds with seeded topology, the
// quartile spread of sim_s_per_cycle was 1.8–5.6 % and of allocs_per_cycle
// 1.2–2.6 %.
const topologySeed = 20160816

// Seed domains keep the streams drawn from one seed apart.
const (
	domainGraph   = 0x6772 // "gr"
	domainIngress = 0x696e // "in"
	domainDelta   = 0x646c // "dl"
	domainOrder   = 0x6f72 // "or"
)

// mix is SplitMix64 over (seed, domain, i): every input stream gets its own
// well-mixed seed from the one the command line gives.
func mix(seed, domain, i uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(domain+1) + 0xbf58476d1ce4e5b9*(i+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func newCluster() (*cluster.Cluster, error) {
	machines := make([]cluster.Machine, len(benchCluster))
	for i, name := range benchCluster {
		m, ok := cluster.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no machine %q in the catalog", name)
		}
		machines[i] = m
	}
	return cluster.New(machines...)
}

// generateGraphs materializes the four real-graph specs at the workload's
// scales.
func generateGraphs(workload string) ([]*graph.Graph, error) {
	specs := gen.RealGraphs()
	graphs := make([]*graph.Graph, len(specs))
	for i, spec := range specs {
		g, err := gen.Generate(spec.Scale(graphScales[workload][i]), mix(topologySeed, domainGraph, uint64(i)))
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	return graphs, nil
}

// ingressSeeds gives every graph its partitioning seed.
func ingressSeeds(seed uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = mix(seed, domainIngress, uint64(i))
	}
	return seeds
}

// generateDeltas draws one evolution step per graph: 1 % of the edges
// inserted, 0.5 % deleted.
func generateDeltas(seed uint64, graphs []*graph.Graph) ([]*graph.Delta, error) {
	deltas := make([]*graph.Delta, len(graphs))
	for i, g := range graphs {
		spec := gen.DeltaSpec{Inserts: len(g.Edges) / 100, Deletes: len(g.Edges) / 200, Time: 1}
		d, err := gen.RandomDelta(g, spec, mix(seed, domainDelta, uint64(i)))
		if err != nil {
			return nil, err
		}
		deltas[i] = d
	}
	return deltas, nil
}

// hubs returns the k highest-degree vertices (in plus out), ties to the lower
// id. Traversals start from hubs so that they explore the giant component; a
// low vertex id may well be isolated, which would make the job trivial.
func hubs(g *graph.Graph, k int) []graph.VertexID {
	deg := make([]int32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	order := make([]graph.VertexID, g.NumVertices)
	for v := range order {
		order[v] = graph.VertexID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] > deg[order[j]]
		}
		return order[i] < order[j]
	})
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}

// partitionerNamed picks one of the repository's partitioners with its
// default parameters.
func partitionerNamed(name string) (partition.Partitioner, error) {
	for _, p := range partition.WithExtensions() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no partitioner %q", name)
}
