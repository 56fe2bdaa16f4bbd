// Package exp reproduces every table and figure of the paper's evaluation
// (Section V) plus the ablations DESIGN.md calls out. Each experiment is a
// method on Lab returning metrics.Tables, so the root benchmarks and
// proxygraph bench print identical output.
//
// Experiments run at 1/Config.Scale of the paper's Table II graph sizes.
// CCRs and speedups are ratios, and the paper itself notes that graph size
// "only affects the magnitude of execution time" (§II-A), so the shape of
// every result is preserved; proxygraph bench -scale 1 reproduces full-size
// runs.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Scale divides every Table II graph size (default 64).
	Scale int
	// Seed drives all generation and hashing.
	Seed uint64
	// Collector, when non-nil, receives structured execution events from
	// every app run an experiment performs through the lab (proxygraph
	// bench's -trace-out/-metrics-out plumb a recorder through here).
	Collector trace.Collector
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Lab owns the cached graphs, proxies and CCR pools an experiment session
// needs, mirroring the paper's flow where proxy generation and profiling are
// one-time offline steps whose outputs are reused.
type Lab struct {
	Cfg Config

	mu       sync.Mutex
	graphs   map[string]*graph.Graph
	profiler *core.ProxyProfiler
	pools    map[string]*core.Pool
}

// NewLab creates a Lab for the given configuration.
func NewLab(cfg Config) *Lab {
	cfg.defaults()
	return &Lab{
		Cfg:    cfg,
		graphs: map[string]*graph.Graph{},
		pools:  map[string]*core.Pool{},
	}
}

// Graph returns the generated (and cached) graph for a Table II spec at the
// lab's scale.
func (l *Lab) Graph(spec gen.Spec) (*graph.Graph, error) {
	scaled := spec.Scale(l.Cfg.Scale)
	l.mu.Lock()
	defer l.mu.Unlock()
	if g, ok := l.graphs[scaled.Name]; ok {
		return g, nil
	}
	g, err := gen.Generate(scaled, l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	l.graphs[scaled.Name] = g
	return g, nil
}

// Profiler returns the lab's shared proxy profiler (three Table II proxies
// at the lab's scale), generating it on first use.
func (l *Lab) Profiler() (*core.ProxyProfiler, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.profiler == nil {
		pp, err := core.NewProxyProfiler(l.Cfg.Scale, l.Cfg.Seed+1000)
		if err != nil {
			return nil, err
		}
		l.profiler = pp
	}
	return l.profiler, nil
}

// Pool returns the cached CCR pool for (cluster groups, estimator),
// profiling on first use.
func (l *Lab) Pool(cl *cluster.Cluster, est core.Estimator) (*core.Pool, error) {
	keys, _ := cl.Groups()
	key := est.Name() + "|" + strings.Join(keys, ",")
	l.mu.Lock()
	if p, ok := l.pools[key]; ok {
		l.mu.Unlock()
		return p, nil
	}
	l.mu.Unlock()
	pool, err := core.BuildPool(cl, apps.All(), est)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.pools[key] = pool
	l.mu.Unlock()
	return pool, nil
}

// System is one of the three partitioning-guidance systems the paper
// compares: the default uniform framework, the prior thread-count work, and
// the proxy-guided contribution.
type System struct {
	Name string
	Est  core.Estimator
}

// Systems returns the paper's three systems. The proxy system shares the
// lab's profiler.
func (l *Lab) Systems() ([]System, error) {
	pp, err := l.Profiler()
	if err != nil {
		return nil, err
	}
	return []System{
		{Name: "default", Est: core.Uniform{}},
		{Name: "prior-work", Est: core.NewThreadCount()},
		{Name: "proxy (ours)", Est: pp},
	}, nil
}

// --- Cluster constructors for the paper's testbeds ---

func mustByName(name string) cluster.Machine {
	m, ok := cluster.ByName(name)
	if !ok {
		panic(fmt.Sprintf("exp: machine %q missing from catalog", name))
	}
	return m
}

// LadderC4 is the compute-optimized scaling ladder of Fig 2 / Fig 8a.
func LadderC4() *cluster.Cluster {
	cl, err := cluster.New(
		mustByName("c4.xlarge"),
		mustByName("c4.2xlarge"),
		mustByName("c4.4xlarge"),
		mustByName("c4.8xlarge"),
	)
	if err != nil {
		panic(err)
	}
	return cl
}

// Cross2xlarge is the same-thread-count cross-category cluster of Fig 8b.
func Cross2xlarge() *cluster.Cluster {
	cl, err := cluster.New(
		mustByName("m4.2xlarge"),
		mustByName("c4.2xlarge"),
		mustByName("r3.2xlarge"),
	)
	if err != nil {
		panic(err)
	}
	return cl
}

// Case1Cluster is the paper's Case 1: m4.2xlarge + c4.2xlarge, identical
// thread counts — invisible heterogeneity to the prior work.
func Case1Cluster() *cluster.Cluster {
	cl, err := cluster.New(mustByName("m4.2xlarge"), mustByName("c4.2xlarge"))
	if err != nil {
		panic(err)
	}
	return cl
}

// Case2Cluster is Case 2: local servers with 4 and 12 compute threads at the
// same frequency range.
func Case2Cluster() *cluster.Cluster {
	cl, err := cluster.New(
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		panic(err)
	}
	return cl
}

// Case3Cluster is Case 3: the 12-core machine at 2.5GHz and the little
// 4-core machine downclocked to 1.8GHz, emulating tiny ARM-like servers.
func Case3Cluster() *cluster.Cluster {
	little := cluster.LocalXeon("xeon-4c", 4, 2.5).WithFrequency(1.8)
	cl, err := cluster.New(little, cluster.LocalXeon("xeon-12c", 12, 2.5))
	if err != nil {
		panic(err)
	}
	return cl
}

// --- Shared run helpers ---

// runWithSystem partitions g for cl guided by the system's CCR estimate and
// executes the app with tr attached, returning the result.
func (l *Lab) runWithSystem(cl *cluster.Cluster, sys System, app apps.App,
	g *graph.Graph, part partition.Partitioner, tr trace.Collector) (*engine.Result, error) {
	shares, err := l.shares(cl, sys, app.Name())
	if err != nil {
		return nil, err
	}
	pl, err := partition.Apply(part, g, shares, l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	return apps.Run(app, pl, cl, engine.Options{Trace: tr})
}

// shares returns the per-machine share vector of cl that the system's pooled
// CCR estimate for the named app gives.
func (l *Lab) shares(cl *cluster.Cluster, sys System, app string) ([]float64, error) {
	pool, err := l.Pool(cl, sys.Est)
	if err != nil {
		return nil, err
	}
	ccr, ok := pool.Get(app)
	if !ok {
		return nil, fmt.Errorf("exp: no pooled CCR for %q under %s", app, sys.Name)
	}
	return ccr.SharesFor(cl)
}

// runApp executes the app with the lab's event collector attached, which
// changes nothing about its results.
func (l *Lab) runApp(app apps.App, pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return apps.Run(app, pl, cl, engine.Options{Trace: l.Cfg.Collector})
}

// realGraphs loads the four emulated Table II real-world graphs.
func (l *Lab) realGraphs() ([]*graph.Graph, error) {
	specs := gen.RealGraphs()
	gs := make([]*graph.Graph, len(specs))
	for i, s := range specs {
		g, err := l.Graph(s)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return gs, nil
}
