package exp

import (
	"fmt"

	"proxygraph/internal/apps"
	"proxygraph/internal/core"
	"proxygraph/internal/gen"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
)

// AblationHybridThreshold sweeps Hybrid's high-degree threshold on the
// social-network graph, reporting replication factor and Case 2 runtime: the
// design-choice study behind PowerLyra's default of 100.
func (l *Lab) AblationHybridThreshold() (*metrics.Table, error) {
	g, err := l.Graph(gen.RealGraphs()[2])
	if err != nil {
		return nil, err
	}
	cl := Case2Cluster()
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	ours := systems[2]
	app := apps.NewPageRank()
	shares, err := l.shares(cl, ours, app.Name())
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Ablation: Hybrid in-degree threshold (pagerank, social_network, Case 2)",
		"threshold", "replication factor", "runtime")
	for _, th := range []int32{4, 16, 64, 100, 400, 1 << 30} {
		h := &partition.Hybrid{Threshold: th}
		pl, err := partition.Apply(h, g, shares, l.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := l.runApp(app, pl, cl)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(th), metrics.F(pl.ReplicationFactor(), 3), metrics.Seconds(res.SimSeconds))
	}
	t.AddNote("threshold 2^30 degenerates to a pure edge cut (no vertex is high-degree)")
	return t, nil
}

// AblationGingerGamma sweeps Ginger's balance weight γ, exposing the
// replication-vs-balance tradeoff of the Fennel-style score.
func (l *Lab) AblationGingerGamma() (*metrics.Table, error) {
	g, err := l.Graph(gen.RealGraphs()[0]) // amazon: clustered, Ginger's best case
	if err != nil {
		return nil, err
	}
	cl := Case2Cluster()
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	app := apps.NewConnectedComponents()
	shares, err := l.shares(cl, systems[2], app.Name())
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Ablation: Ginger balance weight gamma (connected_components, amazon, Case 2)",
		"gamma", "replication factor", "imbalance vs CCR", "runtime")
	for _, gamma := range []float64{0.1, 0.5, 1, 2, 8} {
		gp := &partition.Ginger{Threshold: 100, Gamma: gamma}
		pl, err := partition.Apply(gp, g, shares, l.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := l.runApp(app, pl, cl)
		if err != nil {
			return nil, err
		}
		t.AddRow(metrics.F(gamma, 1), metrics.F(pl.ReplicationFactor(), 3),
			metrics.F(pl.Imbalance(shares), 2), metrics.Seconds(res.SimSeconds))
	}
	t.AddNote("small gamma favors neighborhood affinity (low replication, high imbalance); large gamma enforces the CCR shares")
	return t, nil
}

// AblationProxySet compares CCR accuracy when profiling with a single proxy
// versus the full three-proxy set, quantifying the paper's claim that a
// small set of alphas "covers a wide range of real graphs".
func (l *Lab) AblationProxySet() (*metrics.Table, error) {
	full, err := l.Profiler()
	if err != nil {
		return nil, err
	}
	cl := LadderC4()
	truths, err := l.groundTruths(cl)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Ablation: proxy set coverage (mean CCR error on the c4 ladder)",
		"proxy set", "pagerank", "coloring", "connected_components", "triangle_count", "mean")
	sets := []struct {
		name    string
		indices []int
	}{
		{"alpha 1.95 only", []int{0}},
		{"alpha 2.1 only", []int{1}},
		{"alpha 2.3 only", []int{2}},
		{"all three", []int{0, 1, 2}},
	}
	for _, set := range sets {
		pp := &core.ProxyProfiler{}
		for _, i := range set.indices {
			pp.Proxies = append(pp.Proxies, full.Proxies[i])
		}
		row := []string{set.name}
		var errs []float64
		for j, app := range apps.All() {
			est, err := pp.Estimate(cl, app)
			if err != nil {
				return nil, err
			}
			e, err := est.Error(truths[j])
			if err != nil {
				return nil, err
			}
			errs = append(errs, e)
			row = append(row, metrics.Pct(e))
		}
		row = append(row, metrics.Pct(metrics.Mean(errs)))
		t.AddRow(row...)
	}
	return t, nil
}

// AblationScaleInvariance verifies the paper's Section II-A claim that graph
// size is a "trivial factor" for CCR: proxies at different scales must yield
// nearly identical ratios.
func (l *Lab) AblationScaleInvariance() (*metrics.Table, error) {
	cl := Case2Cluster()
	app := apps.NewPageRank()
	t := metrics.NewTable("Ablation: CCR invariance to proxy graph scale (pagerank, Case 2)",
		"proxy scale divisor", "CCR (xeon-12c / xeon-4c)")
	base := l.Cfg.Scale
	for _, mult := range []int{1, 2, 4, 8} {
		pp, err := core.NewProxyProfiler(base*mult, l.Cfg.Seed+2000)
		if err != nil {
			return nil, err
		}
		ccr, err := pp.Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("1/%d", base*mult), metrics.F(ccr.Ratios["xeon-12c"]/ccr.Ratios["xeon-4c"], 3))
	}
	t.AddNote("ratios should agree across scales: size shifts magnitudes, not relative speeds")
	return t, nil
}
