// Package proxygraph is a from-scratch reproduction of "Proxy-Guided Load
// Balancing of Graph Processing Workloads on Heterogeneous Clusters"
// (ICPP 2016): a PowerGraph-style distributed graph-processing system whose
// graph ingress is guided by Computation Capability Ratios (CCRs) measured
// by profiling synthetic power-law proxy graphs on a simulated heterogeneous
// cluster.
//
// This package is the public facade. The typical flow mirrors the paper's
// Fig 7:
//
//	// 1. Build the heterogeneous cluster (Table I machines or custom).
//	cl, _ := proxygraph.NewCluster(
//	        proxygraph.MustMachine("m4.2xlarge"),
//	        proxygraph.MustMachine("c4.2xlarge"))
//
//	// 2. One-time offline profiling with synthetic proxy graphs.
//	profiler, _ := proxygraph.NewProxyProfiler(64, 1) // 1/64 Table II scale
//	pool, _ := proxygraph.BuildPool(cl, proxygraph.Apps(), profiler)
//
//	// 3. Load or generate a graph and run: the CCR picked from the pool
//	//    weights the partitioner, balancing the barrier times.
//	g, _ := proxygraph.Generate(proxygraph.Spec{
//	        Name: "mygraph", Vertices: 100000, Edges: 1200000}, 7)
//	res, _ := proxygraph.RunPooled(proxygraph.NewPageRank(), g, cl,
//	        proxygraph.NewHybrid(), pool, 7)
//
// The examples in example_test.go run this flow end to end, and go test
// checks what they print. Everything the paper evaluates is reproducible with
// proxygraph bench, or as go test -bench Experiments (BenchmarkExperiments in
// bench_test.go runs one sub-benchmark per experiment).
package proxygraph

import (
	"fmt"

	"proxygraph/internal/advisor"
	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/dynamic"
	"proxygraph/internal/engine"
	"proxygraph/internal/exp"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
	"proxygraph/internal/powerlaw"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"
)

// --- Graphs ---

// Graph is an immutable edge-list graph (see internal/graph).
type Graph = graph.Graph

// Spec describes a graph to generate; its Kind selects the structural
// family.
type Spec = gen.Spec

// Generator kinds: the paper's power-law proxies and a social-network-like
// graph.
const (
	KindPowerLaw = gen.KindPowerLaw
	KindSocial   = gen.KindSocial
)

// Generate materializes a graph spec deterministically from seed
// (Algorithm 1 of the paper for power-law kinds).
func Generate(spec Spec, seed uint64) (*Graph, error) { return gen.Generate(spec, seed) }

// TableIISpecs returns the paper's seven graphs (four real-world emulations
// plus three synthetic proxies).
func TableIISpecs() []Spec { return gen.TableII() }

// RealGraphSpecs returns the four real-world graph specs of Table II.
func RealGraphSpecs() []Spec { return gen.RealGraphs() }

// ProxyGraphSpecs returns the three synthetic proxy specs of Table II.
func ProxyGraphSpecs() []Spec { return gen.ProxyGraphs() }

// ReadGraphFile loads a graph from a SNAP-style text edge list or the
// compact ".bin" format.
func ReadGraphFile(path string) (*Graph, error) { return graph.ReadFile(path) }

// WriteGraphFile stores a graph, selecting the format by extension.
func WriteGraphFile(path string, g *Graph) error { return graph.WriteFile(path, g) }

// FitAlpha computes the power-law exponent α of a graph from its vertex and
// edge counts by solving Eq 7 of the paper with Newton's method.
func FitAlpha(vertices, edges int64) (float64, error) {
	return powerlaw.FitAlphaForGraph(vertices, edges)
}

// --- Machines and clusters ---

// Machine models one compute node (Table I).
type Machine = cluster.Machine

// Cluster is a set of machines with an interconnect.
type Cluster = cluster.Cluster

// MachineCatalog returns the Table I machines.
func MachineCatalog() []Machine { return cluster.Catalog() }

// MachineByName looks up a Table I machine.
func MachineByName(name string) (Machine, bool) { return cluster.ByName(name) }

// MustMachine looks up a Table I machine and panics if it is unknown;
// convenient in examples and tests.
func MustMachine(name string) Machine {
	m, ok := cluster.ByName(name)
	if !ok {
		panic(fmt.Sprintf("proxygraph: unknown machine %q", name))
	}
	return m
}

// LocalXeon constructs a physical Xeon-class machine with the given core
// count and frequency.
func LocalXeon(name string, cores int, freqGHz float64) Machine {
	return cluster.LocalXeon(name, cores, freqGHz)
}

// NewCluster builds a cluster over the machines with the default network.
func NewCluster(machines ...Machine) (*Cluster, error) { return cluster.New(machines...) }

// --- Applications ---

// App is a runnable graph application.
type App = apps.App

// Result reports one application execution (simulated time, energy,
// per-machine loads, and the application output).
type Result = engine.Result

// Apps returns the paper's four applications (PageRank, Coloring, Connected
// Components, Triangle Count).
func Apps() []App { return apps.All() }

// AppsWithExtensions additionally includes the BFS, SSSP, k-core, delta
// PageRank and batched-traversal (ClusterBFS family) extensions.
func AppsWithExtensions() []App { return apps.WithExtensions() }

// AppByName returns the named application.
func AppByName(name string) (App, error) { return apps.ByName(name) }

// NewPageRank returns the PageRank application with PowerGraph defaults.
func NewPageRank() *apps.PageRank { return apps.NewPageRank() }

// NewConnectedComponents returns the label-propagation CC application.
func NewConnectedComponents() *apps.ConnectedComponents { return apps.NewConnectedComponents() }

// --- Partitioning ---

// Partitioner assigns every edge to a machine following a share vector.
type Partitioner = partition.Partitioner

// Placement is a finalized vertex-cut (edge owners, masters, mirrors).
type Placement = engine.Placement

// Partitioners returns the paper's five algorithms (random, oblivious, grid,
// hybrid, ginger) with default parameters.
func Partitioners() []Partitioner { return partition.All() }

// PartitionerByName returns the named algorithm.
func PartitionerByName(name string) (Partitioner, error) { return partition.ByName(name) }

// NewRandomHash returns the weighted Random Hash vertex-cut.
func NewRandomHash() *partition.RandomHash { return partition.NewRandomHash() }

// NewGrid returns the 2D Grid-constrained vertex-cut.
func NewGrid() *partition.Grid { return partition.NewGrid() }

// NewHybrid returns the Hybrid mixed-cut.
func NewHybrid() *partition.Hybrid { return partition.NewHybrid() }

// UniformShares returns equal shares for m machines (the default system).
func UniformShares(m int) []float64 { return partition.UniformShares(m) }

// NormalizeShares scales positive weights (e.g. raw CCR ratios) to sum to 1.
func NormalizeShares(weights []float64) ([]float64, error) {
	return partition.NormalizeShares(weights)
}

// Partition assigns g's edges across len(shares) machines and finalizes the
// master/mirror placement.
func Partition(p Partitioner, g *Graph, shares []float64, seed uint64) (*Placement, error) {
	return partition.Apply(p, g, shares, seed)
}

// --- CCR profiling (the paper's contribution) ---

// CCR holds an application's per-machine-group capability ratios (Eq 1).
type CCR = core.CCR

// Pool is the offline-profiled CCR pool of Fig 7a.
type Pool = core.Pool

// Estimator produces an application's CCR for a cluster.
type Estimator = core.Estimator

// NewProxyProfiler generates the paper's three synthetic proxy graphs at
// 1/scale of their Table II sizes and returns the proxy-profiling estimator
// (this paper's methodology).
func NewProxyProfiler(scale int, seed uint64) (*core.ProxyProfiler, error) {
	return core.NewProxyProfiler(scale, seed)
}

// NewThreadCountEstimator returns the prior work's estimator: capability
// proportional to hardware threads minus two reserved for communication.
func NewThreadCountEstimator() *core.ThreadCount { return core.NewThreadCount() }

// UniformEstimator returns the default system's all-machines-equal estimate.
func UniformEstimator() Estimator { return core.Uniform{} }

// MeasureCCR measures the ground-truth CCR of app on cl using graph g: one
// solo run, priced on each machine group (see SoloSeconds).
func MeasureCCR(cl *Cluster, app App, g *Graph) (CCR, error) {
	return core.MeasureCCR(cl, app, g)
}

// SoloSeconds returns app's simulated makespan on g alone on one machine of
// each type in machines, keyed by machine name: one recorded run, priced on
// every type.
func SoloSeconds(app App, g *Graph, machines []Machine) (map[string]float64, error) {
	return core.SoloSeconds(app, g, machines)
}

// BuildPool profiles every application with the estimator and collects the
// CCRs into a pool.
func BuildPool(cl *Cluster, applications []App, est Estimator) (*Pool, error) {
	return core.BuildPool(cl, applications, est)
}

// --- End-to-end runs ---

// run partitions g over cl with explicit shares and executes the app.
func run(app App, g *Graph, cl *Cluster, p Partitioner, shares []float64, seed uint64) (*Result, error) {
	pl, err := partition.Apply(p, g, shares, seed)
	if err != nil {
		return nil, err
	}
	return app.Run(pl, cl)
}

// RunWithCCR partitions g following the CCR's shares for cl and executes
// the app — the heterogeneity-aware flow of Fig 7b.
func RunWithCCR(app App, g *Graph, cl *Cluster, p Partitioner, ccr CCR, seed uint64) (*Result, error) {
	shares, err := ccr.SharesFor(cl)
	if err != nil {
		return nil, err
	}
	return run(app, g, cl, p, shares, seed)
}

// RunPooled picks the app's CCR from the pool and runs like RunWithCCR.
func RunPooled(app App, g *Graph, cl *Cluster, p Partitioner, pool *Pool, seed uint64) (*Result, error) {
	ccr, ok := pool.Get(app.Name())
	if !ok {
		return nil, fmt.Errorf("proxygraph: no pooled CCR for application %q", app.Name())
	}
	return RunWithCCR(app, g, cl, p, ccr, seed)
}

// RunUniform partitions g evenly (the default homogeneous assumption) and
// executes the app.
func RunUniform(app App, g *Graph, cl *Cluster, p Partitioner, seed uint64) (*Result, error) {
	return run(app, g, cl, p, partition.UniformShares(cl.Size()), seed)
}

// --- Experiments ---

// Table is the formatted output of one experiment.
type Table = metrics.Table

// TableI renders the machine-configuration table.
func TableI() *Table { return exp.TableI() }

// --- Extensions beyond the paper ---

// PartitionersWithExtensions returns the paper's five algorithms plus HDRF.
func PartitionersWithExtensions() []Partitioner { return partition.WithExtensions() }

// TraceEvent is one structured execution event: a step, a machine's share
// of it, a stall, a fault (see internal/trace).
type TraceEvent = trace.Event

// RunTraced executes app over a finalized placement and returns the result
// with the run's event stream, the timeline TraceGantt and StragglerShare
// read. An App defined outside this module records no events and is refused.
func RunTraced(app App, pl *Placement, cl *Cluster) (*Result, []TraceEvent, error) {
	rec := trace.NewRecorder()
	res, err := apps.Run(app, pl, cl, engine.Options{Trace: rec})
	if err != nil {
		return nil, nil, err
	}
	return res, rec.Events, nil
}

// TraceGantt renders a run's events as an ASCII timeline for straggler
// analysis.
func TraceGantt(res *Result, events []TraceEvent, width int) string {
	return trace.Gantt(events, res.App+" on "+res.Graph, res.SimSeconds, width)
}

// StragglerShare returns, per machine, the fraction of a run's phases it
// straggled.
func StragglerShare(events []TraceEvent) []float64 { return trace.StragglerShare(events) }

// IngressReport breaks down the loading/finalization phase per machine.
type IngressReport = engine.IngressReport

// Ingress estimates a placement's loading/finalization cost on a cluster.
func Ingress(pl *Placement, cl *Cluster) (*IngressReport, error) {
	return engine.Ingress(pl, cl)
}

// NewMigrator returns a Mizan-style dynamic load balancer (related work [13]
// of the paper) usable as a Rebalancer on the synchronous applications.
func NewMigrator(seed uint64) *dynamic.Migrator { return dynamic.NewMigrator(seed) }

// Rebalancer is a dynamic load-balancing policy invoked between supersteps.
type Rebalancer = engine.Rebalancer

// RunWithRebalancer executes app over a finalized placement with rb invoked
// after every superstep barrier; its migrations are charged as stalls.
// Applications off the synchronous engine (see AppsWithExtensions) and Apps
// defined outside this module have no supersteps to rebalance: an error.
func RunWithRebalancer(app App, pl *Placement, cl *Cluster, rb Rebalancer) (*Result, error) {
	return apps.Run(app, pl, cl, engine.Options{Rebalancer: rb})
}

// AdvisorRequest parameterizes a cluster-composition recommendation.
type AdvisorRequest = advisor.Request

// AdvisorSelection is one recommended cluster composition.
type AdvisorSelection = advisor.Selection

// AdvisorMaxSpeed maximizes throughput within the budget.
const AdvisorMaxSpeed = advisor.MaxSpeed

// MeasureSpeeds profiles machines standalone on the proxy set and returns
// per-type speeds for RecommendCluster.
func MeasureSpeeds(machines []Machine, applications []App, profiler *core.ProxyProfiler) (advisor.Speeds, error) {
	return advisor.MeasureSpeeds(machines, applications, profiler)
}

// RecommendCluster enumerates machine compositions under the request and
// returns the best plus the ranked top candidates.
func RecommendCluster(catalog []Machine, speeds advisor.Speeds, req AdvisorRequest) (AdvisorSelection, []AdvisorSelection, error) {
	return advisor.Recommend(catalog, speeds, req)
}

// LoadPoolFile reads a CCR pool JSON written by Pool.SaveFile or
// proxygraph profile.
func LoadPoolFile(path string) (*Pool, error) { return core.LoadPoolFile(path) }

// WorkloadJob is one application × graph unit in a session.
type WorkloadJob = workload.Job

// WorkloadSession executes job streams on a cluster under a CCR estimator,
// charging the proxy system's one-time profiling cost (the Section III-B
// amortization argument).
type WorkloadSession = workload.Session

// WorkloadReport summarizes one session run.
type WorkloadReport = workload.Report

// RandomJobs draws a deterministic mixed job stream over the Table II
// real-world graphs and the paper's four applications.
func RandomJobs(n, scale int, seed uint64) ([]WorkloadJob, error) {
	return workload.RandomJobs(n, scale, seed)
}

// SessionCrossover returns the job index at which a's cumulative time drops
// below b's (0 = never).
func SessionCrossover(a, b *WorkloadReport) int { return workload.Crossover(a, b) }
