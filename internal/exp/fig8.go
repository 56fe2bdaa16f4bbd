package exp

import (
	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/metrics"
)

// Fig8a reproduces the paper's Fig 8a: CCRs acquired from real-world graphs
// vs synthetic proxy graphs across the c4 ladder (machines with different
// thread counts in the same category), plus the prior work's estimate. The
// note reports the aggregate accuracies the paper quotes (proxy ≈92%
// accurate; thread-count estimate ≈108% error).
func (l *Lab) Fig8a() (*metrics.Table, error) {
	order := []string{"c4.xlarge", "c4.2xlarge", "c4.4xlarge", "c4.8xlarge"}
	return l.figure8("Fig 8a: CCR from real vs synthetic graphs (c4 ladder)", LadderC4(), order)
}

// Fig8b reproduces Fig 8b: the same comparison for machines with identical
// thread counts from three categories (m4 / c4 / r3 2xlarge), heterogeneity
// the prior work cannot see at all.
func (l *Lab) Fig8b() (*metrics.Table, error) {
	order := []string{"m4.2xlarge", "c4.2xlarge", "r3.2xlarge"}
	return l.figure8("Fig 8b: CCR from real vs synthetic graphs (2xlarge categories)", Cross2xlarge(), order)
}

func (l *Lab) figure8(title string, cl *cluster.Cluster, order []string) (*metrics.Table, error) {
	truths, err := l.groundTruths(cl)
	if err != nil {
		return nil, err
	}
	pp, err := l.Profiler()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(title, append([]string{"app", "series"}, order...)...)

	var proxyErrs, priorErrs []float64
	for i, app := range apps.All() {
		proxy, err := pp.Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		prior, err := core.NewThreadCount().Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		addSeries := func(label string, c core.CCR) {
			row := []string{app.Name(), label}
			for _, m := range order {
				row = append(row, metrics.Speedup(c.Ratios[m]))
			}
			t.AddRow(row...)
		}
		addSeries("real graphs", truths[i])
		addSeries("synthetic", proxy)
		addSeries("prior estimate", prior)

		pe, err := proxy.Error(truths[i])
		if err != nil {
			return nil, err
		}
		we, err := prior.Error(truths[i])
		if err != nil {
			return nil, err
		}
		proxyErrs = append(proxyErrs, pe)
		priorErrs = append(priorErrs, we)
	}
	t.AddNote("proxy accuracy %s (error %s); prior-work error %s",
		metrics.Pct(1-metrics.Mean(proxyErrs)), metrics.Pct(metrics.Mean(proxyErrs)),
		metrics.Pct(metrics.Mean(priorErrs)))
	return t, nil
}

// groundTruths returns the ground-truth CCR of each of apps.All() on cl: the
// geometric mean over the four emulated real-world graphs, which is what a
// proxy profiler holding those graphs as its proxies estimates.
func (l *Lab) groundTruths(cl *cluster.Cluster) ([]core.CCR, error) {
	reals, err := l.realGraphs()
	if err != nil {
		return nil, err
	}
	truth := &core.ProxyProfiler{Proxies: reals}
	var ccrs []core.CCR
	for _, app := range apps.All() {
		c, err := truth.Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		ccrs = append(ccrs, c)
	}
	return ccrs, nil
}
