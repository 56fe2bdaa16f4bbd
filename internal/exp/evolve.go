package exp

import (
	"fmt"

	"proxygraph/internal/apps"
	"proxygraph/internal/core"
	"proxygraph/internal/dynamic"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
	"proxygraph/internal/workload"
)

// EvolveStudy drives one graph through a chain of mutation batches and
// compares, per version, the full-rebuild pipeline (re-ingress from scratch,
// cold connected-components run) against the incremental one (placement
// amended through the cache's content-keyed PlaceEvolved, labels resumed from
// the previous version's output). Columns report the cache outcome, the
// proxy's CCR error on the evolved graph (the guidance stays accurate as the
// graph drifts), the imbalance of both placements, the superstep counts and
// makespans, and the end-to-end speedup of warm over cold. The note
// quantifies how a dynamic migrator absorbs the residual drift amendment
// leaves behind on the final version.
func (l *Lab) EvolveStudy() (*metrics.Table, error) {
	cl := Case2Cluster()
	base, err := l.Graph(gen.RealGraphs()[0])
	if err != nil {
		return nil, err
	}
	pp, err := l.Profiler()
	if err != nil {
		return nil, err
	}
	app := apps.NewConnectedComponents()
	proxy, err := pp.Estimate(cl, app)
	if err != nil {
		return nil, err
	}
	shares, err := proxy.SharesFor(cl)
	if err != nil {
		return nil, err
	}
	part := partition.NewHDRF()
	cache := workload.NewPlacementCache()
	seed := l.Cfg.Seed

	pl0, _, err := cache.Place(part, base, shares, seed)
	if err != nil {
		return nil, err
	}
	res0, err := l.runApp(app, pl0, cl)
	if err != nil {
		return nil, err
	}
	prior := res0.Output.(apps.Components).Labels

	t := metrics.NewTable("Evolving graphs: amended placement + resumed CC vs full rebuild (Case 2, proxy shares)",
		"version", "churn", "cache", "proxy CCR err",
		"imb full", "imb amend", "steps cold→warm", "cold", "warm", "speedup")

	// Versions t1-t3 grow the graph (pure insertion churn), the regime where
	// incremental recomputation pays; t4 adds heavy deletions, where a
	// deletion inside a component resets the whole component's labels
	// (splits can strand too-small labels anywhere), so the warm run
	// degenerates to roughly a cold one by construction — the table shows
	// both regimes.
	inserts := len(base.Edges) / 20
	if inserts < 1 {
		inserts = 1
	}
	cur := base
	var lastResume *apps.ConnectedComponentsResume
	var lastPl *engine.Placement
	var lastWarm float64
	for k := 1; k <= 4; k++ {
		deletes := 0
		if k == 4 {
			deletes = inserts
		}
		d, err := gen.RandomDelta(cur, gen.DeltaSpec{
			Inserts: inserts, Deletes: deletes, Time: uint64(k),
		}, seed+uint64(k))
		if err != nil {
			return nil, err
		}
		evolved, err := d.Apply(cur)
		if err != nil {
			return nil, err
		}

		// Full rebuild: re-ingress from scratch, cold run.
		fullPl, err := partition.Apply(part, evolved, shares, seed)
		if err != nil {
			return nil, err
		}
		coldRes, err := l.runApp(app, fullPl, cl)
		if err != nil {
			return nil, err
		}

		// Incremental: content-keyed amendment plus warm-started resume.
		amendPl, outcome, err := cache.PlaceEvolved(part, cur, d, evolved, shares, seed)
		if err != nil {
			return nil, err
		}
		resume := app.Resume(prior, d, evolved)
		warmRes, err := l.runApp(resume, amendPl, cl)
		if err != nil {
			return nil, err
		}

		// The resumed labelling must agree with the cold one — CC's fixed
		// point is unique, so any divergence is a bug, not noise.
		coldOut := coldRes.Output.(apps.Components)
		warmOut := warmRes.Output.(apps.Components)
		if coldOut.Count != warmOut.Count || coldOut.Largest != warmOut.Largest {
			return nil, fmt.Errorf("exp: evolve version %d: resumed components %d/%d, cold %d/%d",
				k, warmOut.Count, warmOut.Largest, coldOut.Count, coldOut.Largest)
		}

		truth, err := core.MeasureCCR(cl, app, evolved)
		if err != nil {
			return nil, err
		}
		proxyErr, err := proxy.Error(truth)
		if err != nil {
			return nil, err
		}

		t.AddRow(
			fmt.Sprintf("t%d", k),
			fmt.Sprintf("+%d/-%d", len(d.Inserts), len(d.Deletes)),
			outcome.String(),
			metrics.Pct(proxyErr),
			metrics.F(fullPl.Imbalance(shares), 3),
			metrics.F(amendPl.Imbalance(shares), 3),
			fmt.Sprintf("%d→%d", coldRes.Supersteps, warmRes.Supersteps),
			metrics.Seconds(coldRes.SimSeconds),
			metrics.Seconds(warmRes.SimSeconds),
			metrics.Speedup(coldRes.SimSeconds/warmRes.SimSeconds),
		)

		prior = warmOut.Labels
		cur = evolved
		lastResume, lastPl, lastWarm = resume, amendPl, warmRes.SimSeconds
	}

	// Host ingress wall time is deliberately not reported: it would make the
	// golden-pinned table nondeterministic.
	st := cache.Stats()
	t.AddNote("cache outcomes across the chain: %d miss, %d amend, %d hit",
		st.Misses, st.Amends, st.Hits)

	// Residual drift absorption: replay the last warm run with a migrator
	// rebalancing after each superstep barrier.
	migRes, err := apps.Run(lastResume, lastPl, cl, engine.Options{
		Rebalancer: dynamic.NewMigrator(seed),
		Trace:      l.Cfg.Collector,
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("migrator on the amended placement (t4): %s → %s (%s)",
		metrics.Seconds(lastWarm), metrics.Seconds(migRes.SimSeconds),
		metrics.Speedup(lastWarm/migRes.SimSeconds))
	return t, nil
}
