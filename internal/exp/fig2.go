package exp

import (
	"fmt"

	"proxygraph/internal/apps"
	"proxygraph/internal/core"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/metrics"
)

// Fig2 reproduces the paper's Fig 2: "Speedup estimated by prior work vs
// real speedup". Each application runs standalone on the c4 ladder with the
// social-network graph; the real speedups are compared against the prior
// work's thread-count estimate (the dotted line: 1x, 3x, 7x, 17x).
func (l *Lab) Fig2() (*metrics.Table, error) {
	cl := LadderC4()
	g, err := l.Graph(gen.RealGraphs()[2]) // social_network
	if err != nil {
		return nil, err
	}
	groups, _ := cl.Groups()
	// Order the ladder by size rather than lexicographically.
	order := []string{"c4.xlarge", "c4.2xlarge", "c4.4xlarge", "c4.8xlarge"}
	cols := append([]string{"series"}, order...)
	t := metrics.NewTable("Fig 2: speedup estimated by prior work vs real speedup (social_network)", cols...)

	est, err := core.NewThreadCount().Estimate(cl, apps.NewPageRank())
	if err != nil {
		return nil, err
	}
	row := []string{"estimate (prior work)"}
	for _, m := range order {
		row = append(row, metrics.Speedup(est.Ratios[m]))
	}
	t.AddRow(row...)

	for _, app := range apps.All() {
		ccr, err := core.MeasureCCR(cl, app, g)
		if err != nil {
			return nil, err
		}
		row := []string{app.Name()}
		for _, m := range order {
			row = append(row, metrics.Speedup(ccr.Ratios[m]))
		}
		t.AddRow(row...)
	}
	_ = groups
	t.AddNote("real speedups are relative to c4.xlarge (Eq 1); prior work reads (HW threads - 2)")
	return t, nil
}

// Fig6 reproduces the paper's Fig 6: a natural graph's degree distribution
// following a power law. The paper plots the Friendster social network; we
// plot the densest synthetic proxy (α = 1.95) in log-spaced degree buckets,
// demonstrating the linear log-log decay.
func (l *Lab) Fig6() (*metrics.Table, error) {
	// Natural density (no edge-count target): at reduced scale the truncated
	// support shifts the attainable mean degree, and rescaling degrees to a
	// target would distort exactly the low-degree buckets this figure is
	// about.
	spec := gen.ProxyGraphs()[0].Scale(l.Cfg.Scale)
	spec.Edges = 0
	spec.Name = "friendster-like"
	g, err := gen.Generate(spec, l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Fig 6: power-law degree distribution ("+g.Name+")",
		"degree bucket", "vertices")
	// Out-degrees, the side Algorithm 1 samples from its power law.
	for b, total := range graph.LogDegreeBuckets(g.OutDegrees()) {
		if total > 0 {
			t.AddRow(graph.LogDegreeBucketLabel(b), fmt.Sprint(total))
		}
	}
	t.AddNote("alpha (declared) = %.2f; counts decay linearly in log-log space", g.Alpha)
	return t, nil
}
