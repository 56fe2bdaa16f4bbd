package exp

import (
	"cmp"
	"fmt"

	"proxygraph/internal/apps"
	"proxygraph/internal/metrics"
	"proxygraph/internal/par"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

// Fig9 reproduces the paper's Fig 9 (a-d): Case 1 application runtimes on
// the Amazon cluster of one m4.2xlarge and one c4.2xlarge, for all four
// real-world graphs and all five partitioning algorithms, comparing the
// prior work's partitioning against CCR-guided partitioning. The two
// machines have identical thread counts, so the prior work degenerates to
// the uniform default — exactly the blind spot the paper exploits — and the
// reported speedup of "ours vs prior" equals "ours vs default".
//
// One table per application is returned, in the paper's order (9a PageRank,
// 9b Coloring, 9c Connected Component, 9d Triangle Count).
func (l *Lab) Fig9() ([]*metrics.Table, error) {
	cl := Case1Cluster()
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	prior, ours := systems[1], systems[2]
	reals, err := l.realGraphs()
	if err != nil {
		return nil, err
	}
	parts := partition.All()

	var tables []*metrics.Table
	labels := map[string]string{
		"pagerank":             "Fig 9a: Pagerank",
		"coloring":             "Fig 9b: Coloring",
		"connected_components": "Fig 9c: Connected Component",
		"triangle_count":       "Fig 9d: Triangle Count",
	}
	// Pre-warm the CCR pools so the parallel workers below only read them.
	for _, sys := range []System{prior, ours} {
		if _, err := l.Pool(cl, sys.Est); err != nil {
			return nil, err
		}
	}
	allApps := apps.All()
	type cell struct{ tPrior, tOurs float64 }
	cells := make([]cell, len(allApps)*len(reals)*len(parts))
	// Cells run concurrently, so each records into its own recorder; the
	// collector gets their events afterwards, in cell order, which is the
	// stream a sequential run would have sent.
	recs := make([]*trace.Recorder, len(cells))
	run := func(i int) error {
		app := allApps[i/(len(reals)*len(parts))]
		g := reals[i/len(parts)%len(reals)]
		part := parts[i%len(parts)]
		var tr trace.Collector
		if l.Cfg.Collector != nil {
			recs[i] = trace.NewRecorder()
			tr = recs[i]
		}
		resPrior, err := l.runWithSystem(cl, prior, app, g, part, tr)
		if err != nil {
			return err
		}
		resOurs, err := l.runWithSystem(cl, ours, app, g, part, tr)
		if err != nil {
			return err
		}
		cells[i] = cell{resPrior.SimSeconds, resOurs.SimSeconds}
		return nil
	}
	errs := make([]error, len(cells))
	par.Tasks(len(cells), func(_, i int) { errs[i] = run(i) })
	if err := cmp.Or(errs...); err != nil { // the lowest-index error
		return nil, err
	}
	if l.Cfg.Collector != nil {
		for _, rec := range recs {
			for _, e := range rec.Events {
				l.Cfg.Collector.Event(e)
			}
		}
	}

	for a, app := range allApps {
		t := metrics.NewTable(labels[app.Name()]+" on Case 1 (m4.2xlarge + c4.2xlarge)",
			"graph", "partitioner", "t(prior)", "t(ours)", "speedup")
		var speedups []float64
		for gi, g := range reals {
			for pi, part := range parts {
				c := cells[(a*len(reals)+gi)*len(parts)+pi]
				s := c.tPrior / c.tOurs
				speedups = append(speedups, s)
				t.AddRow(g.Name, part.Name(),
					metrics.Seconds(c.tPrior),
					metrics.Seconds(c.tOurs),
					metrics.Speedup(s))
			}
		}
		t.AddNote("average speedup %s, max %s (prior work sees identical thread counts, so it equals the default here)",
			metrics.Speedup(metrics.Mean(speedups)), metrics.Speedup(metrics.Max(speedups)))
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig9Summary condenses Fig9 into one row per application (average and max
// speedup), the numbers quoted in the paper's Section V-B1.
func (l *Lab) Fig9Summary() (*metrics.Table, error) {
	tables, err := l.Fig9()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Fig 9 summary: Case 1 speedup of CCR-guided over prior work",
		"app", "avg speedup", "max speedup")
	for i, app := range apps.All() {
		var speedups []float64
		for _, row := range tables[i].Rows {
			var v float64
			if _, err := fmt.Sscanf(row[4], "%fx", &v); err == nil {
				speedups = append(speedups, v)
			}
		}
		t.AddRow(app.Name(),
			metrics.Speedup(metrics.Mean(speedups)),
			metrics.Speedup(metrics.Max(speedups)))
	}
	return t, nil
}
