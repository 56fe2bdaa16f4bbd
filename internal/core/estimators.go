package core

import (
	"fmt"
	"math"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// Estimator produces an application's CCR for a cluster. Three estimators
// reproduce the paper's three systems under comparison:
//
//   - Uniform: the default PowerGraph assumption (all machines equal).
//   - ThreadCount: prior work (LeBeane et al. [5]), which reads hardware
//     configurations — capability proportional to hardware threads minus the
//     two reserved for communication.
//   - ProxyProfiler: this paper — profile the application on synthetic
//     power-law proxy graphs, one machine per group, and take the measured
//     speedups (Section III-B).
type Estimator interface {
	// Name identifies the estimator in experiment tables.
	Name() string
	// Estimate returns the CCR of app on cl.
	Estimate(cl *cluster.Cluster, app apps.App) (CCR, error)
}

// Uniform treats every machine group as equally capable: the default
// system's implicit assumption.
type Uniform struct{}

// Name implements Estimator.
func (Uniform) Name() string { return "default" }

// Estimate implements Estimator.
func (Uniform) Estimate(cl *cluster.Cluster, app apps.App) (CCR, error) {
	keys, _ := cl.Groups()
	c := CCR{App: app.Name(), Ratios: make(map[string]float64, len(keys))}
	for _, g := range keys {
		c.Ratios[g] = 1
	}
	return c, nil
}

// ThreadCount reproduces the prior work's estimate: a machine's graph
// processing capability is its number of computing threads (hardware threads
// with ReservedThreads subtracted for communication). The paper's running
// example: 4 threads vs 8 threads gives 1:3, i.e. (4-2):(8-2).
type ThreadCount struct {
	// ReservedThreads are subtracted from each machine's hardware threads
	// (default 2, per the paper).
	ReservedThreads int
}

// NewThreadCount returns the estimator with the paper's reservation of two
// communication threads.
func NewThreadCount() *ThreadCount { return &ThreadCount{ReservedThreads: 2} }

// Name implements Estimator.
func (*ThreadCount) Name() string { return "prior-work" }

// Estimate implements Estimator.
func (tc *ThreadCount) Estimate(cl *cluster.Cluster, app apps.App) (CCR, error) {
	keys, members := cl.Groups()
	capability := make(map[string]float64, len(keys))
	slowest := 0.0
	for _, g := range keys {
		m := cl.Machines[members[g][0]]
		threads := m.HWThreads - tc.ReservedThreads
		if threads < 1 {
			threads = 1
		}
		capability[g] = float64(threads)
	}
	// Normalize so the weakest group is 1, matching Eq 1's convention.
	for _, v := range capability {
		if slowest == 0 || v < slowest {
			slowest = v
		}
	}
	c := CCR{App: app.Name(), Ratios: make(map[string]float64, len(keys))}
	for g, v := range capability {
		c.Ratios[g] = v / slowest
	}
	return c, nil
}

// ProxyProfiler is the paper's methodology: execute the application on
// synthetic power-law proxy graphs, one representative machine per group in
// isolation (no communication interference), and derive the CCR from the
// measured times. Profiling is a one-time offline process per application;
// the generated proxies are reused across applications and clusters.
type ProxyProfiler struct {
	// Proxies are the profiling inputs, typically the three Table II
	// synthetic graphs (α = 1.95, 2.1, 2.3) at the chosen scale.
	Proxies []*graph.Graph
}

// NewProxyProfiler generates the paper's three proxy graphs at 1/scale of
// their Table II size ("generating three deployed proxies took 67 seconds"
// — a one-time cost).
func NewProxyProfiler(scale int, seed uint64) (*ProxyProfiler, error) {
	specs := gen.ProxyGraphs()
	proxies := make([]*graph.Graph, len(specs))
	for i, spec := range specs {
		g, err := gen.Generate(spec.Scale(scale), seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("core: generating proxy %q: %w", spec.Name, err)
		}
		proxies[i] = g
	}
	return &ProxyProfiler{Proxies: proxies}, nil
}

// Name implements Estimator.
func (*ProxyProfiler) Name() string { return "proxy" }

// Estimate implements Estimator: ProxyCCR of app's Profile on cl.
func (pp *ProxyProfiler) Estimate(cl *cluster.Cluster, app apps.App) (CCR, error) {
	solo, err := pp.Profile(app, cl.Machines)
	if err != nil {
		return CCR{}, err
	}
	return ProxyCCR(app.Name(), solo)
}

// Profile is every proxy profiling run: app's SoloSeconds on each proxy, in
// proxy order. It keeps no state, so concurrent calls are safe.
func (pp *ProxyProfiler) Profile(app apps.App, machines []cluster.Machine) ([]map[string]float64, error) {
	if pp == nil || len(pp.Proxies) == 0 {
		return nil, fmt.Errorf("core: proxy profiler has no proxy graphs")
	}
	solo := make([]map[string]float64, len(pp.Proxies))
	for i, proxy := range pp.Proxies {
		secs, err := SoloSeconds(app, proxy, machines)
		if err != nil {
			return nil, err
		}
		solo[i] = secs
	}
	return solo, nil
}

// ProxyCCR reduces a Profile to app's CCR: each proxy's Eq 1 ratios are
// averaged per group (geometric mean) over the proxy set, which covers the α
// range of natural graphs, and renormalized so the slowest group is 1.
func ProxyCCR(app string, solo []map[string]float64) (CCR, error) {
	logSum := map[string]float64{}
	for _, times := range solo {
		c, err := FromTimes(app, times)
		if err != nil {
			return CCR{}, err
		}
		for g, r := range c.Ratios {
			logSum[g] += math.Log(r)
		}
	}
	c := CCR{App: app, Ratios: make(map[string]float64, len(logSum))}
	slowest := 0.0
	for g, s := range logSum {
		v := math.Exp(s / float64(len(solo)))
		c.Ratios[g] = v
		if slowest == 0 || v < slowest {
			slowest = v
		}
	}
	for g := range c.Ratios {
		c.Ratios[g] /= slowest
	}
	return c, nil
}

// MeasureCCR measures the ground-truth CCR of app on cl using graph g: one
// standalone run per machine group (Section III-B: "each profiling set is
// executed on one machine from each group in parallel", without communication
// interference), simulated by SoloSeconds. With a natural graph as g this is
// the "real" CCR the paper validates proxies against in Fig 8.
func MeasureCCR(cl *cluster.Cluster, app apps.App, g *graph.Graph) (CCR, error) {
	times, err := SoloSeconds(app, g, cl.Machines)
	if err != nil {
		return CCR{}, err
	}
	return FromTimes(app.Name(), times)
}

// SoloSeconds is every profiling run: app's simulated makespan on g alone on
// one machine of each type in machines, keyed by machine name. A solo run's
// step counters do not depend on the machine, so it runs app once, records
// the steps and prices them on each type with engine.Price, bit for bit what
// one run per type would charge.
func SoloSeconds(app apps.App, g *graph.Graph, machines []cluster.Machine) (map[string]float64, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("core: no machines to profile %s on", app.Name())
	}
	solo, err := cluster.New(machines[0])
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	if _, err := apps.Run(app, engine.SingleMachine(g), solo, engine.Options{Trace: rec}); err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", app.Name(), err)
	}
	times := make(map[string]float64, len(machines))
	for _, m := range machines {
		if _, done := times[m.Name]; done {
			continue
		}
		if solo, err = cluster.New(m); err != nil {
			return nil, err
		}
		res, err := engine.Price(rec.Events, solo, app.Coeffs())
		if err != nil {
			return nil, fmt.Errorf("core: profiling %s on %s: %w", app.Name(), m.Name, err)
		}
		// A zero or non-finite time would poison every ratio and geometric
		// mean built from it (a stub app with zero coefficients prices to 0).
		if t := res.SimSeconds; t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
			return nil, fmt.Errorf("core: profiling %s on %s: invalid makespan %v", app.Name(), m.Name, t)
		}
		times[m.Name] = res.SimSeconds
	}
	return times, nil
}

// BuildPool profiles every application with the estimator and collects the
// CCRs into a pool (the offline flow of Fig 7a).
func BuildPool(cl *cluster.Cluster, applications []apps.App, est Estimator) (*Pool, error) {
	pool := NewPool()
	for _, app := range applications {
		c, err := est.Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		pool.Put(c)
	}
	return pool, nil
}
