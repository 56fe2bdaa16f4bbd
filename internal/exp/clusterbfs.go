package exp

import (
	"proxygraph/internal/apps"
	"proxygraph/internal/core"
	"proxygraph/internal/gen"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
)

// ClusterBFSStudy probes the proxy model on bitset-state applications: the
// batched ClusterBFS family carries 264-byte packed vertex state and
// OR-accumulated words, a gather/apply profile none of the paper's scalar
// apps exhibit. For scalar BFS and each batch workload it compares the
// proxy-predicted CCR against the CCR measured on the real graph (plus the
// prior thread-count estimate), then runs the app under all three systems'
// shares and reports the resulting makespans — proxy-predicted guidance vs
// measured outcome for bitset-state apps. The note quantifies the batch
// amortization itself: one packed 64-lane pass vs 64 sequential single-source
// BFS runs of the same roots.
func (l *Lab) ClusterBFSStudy() (*metrics.Table, error) {
	cl := Case2Cluster()
	g, err := l.Graph(gen.RealGraphs()[0])
	if err != nil {
		return nil, err
	}
	pp, err := l.Profiler()
	if err != nil {
		return nil, err
	}
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	part := partition.NewHybrid()

	batch := apps.NewClusterBFS()
	studyApps := []apps.App{apps.NewBFS(), batch, apps.NewLandmarkOracle(), apps.NewKSeedReach()}

	t := metrics.NewTable("ClusterBFS study: proxy-predicted vs measured placement for bitset-state apps (Case 2)",
		"app", "proxy CCR err", "prior CCR err", "default", "prior-work", "proxy (ours)", "speedup")

	var packedSeconds float64
	for _, app := range studyApps {
		truth, err := core.MeasureCCR(cl, app, g)
		if err != nil {
			return nil, err
		}
		proxy, err := pp.Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		prior, err := core.NewThreadCount().Estimate(cl, app)
		if err != nil {
			return nil, err
		}
		proxyErr, err := proxy.Error(truth)
		if err != nil {
			return nil, err
		}
		priorErr, err := prior.Error(truth)
		if err != nil {
			return nil, err
		}

		makespans := make([]float64, len(systems))
		for i, sys := range systems {
			ccr, err := sys.Est.Estimate(cl, app)
			if err != nil {
				return nil, err
			}
			shares, err := ccr.SharesFor(cl)
			if err != nil {
				return nil, err
			}
			pl, err := partition.Apply(part, g, shares, l.Cfg.Seed)
			if err != nil {
				return nil, err
			}
			res, err := l.runApp(app, pl, cl)
			if err != nil {
				return nil, err
			}
			makespans[i] = res.SimSeconds
			if app.Name() == batch.Name() && sys.Name == "proxy (ours)" {
				packedSeconds = res.SimSeconds
			}
		}
		t.AddRow(app.Name(),
			metrics.Pct(proxyErr), metrics.Pct(priorErr),
			metrics.Seconds(makespans[0]), metrics.Seconds(makespans[1]), metrics.Seconds(makespans[2]),
			metrics.Speedup(makespans[0]/makespans[2]))
	}

	// Batch amortization: the same 64 roots, one at a time, under the proxy
	// system's scalar-BFS shares.
	ccr, err := pp.Estimate(cl, apps.NewBFS())
	if err != nil {
		return nil, err
	}
	shares, err := ccr.SharesFor(cl)
	if err != nil {
		return nil, err
	}
	pl, err := partition.Apply(part, g, shares, l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	var scalarSeconds float64
	for _, src := range batch.Sources {
		b := &apps.BFS{Source: src, MaxIters: 1000}
		res, err := l.runApp(b, pl, cl)
		if err != nil {
			return nil, err
		}
		scalarSeconds += res.SimSeconds
	}
	t.AddNote("batch amortization: 64 scalar BFS runs %s vs one packed pass %s (%s)",
		metrics.Seconds(scalarSeconds), metrics.Seconds(packedSeconds),
		metrics.Speedup(scalarSeconds/packedSeconds))
	return t, nil
}
