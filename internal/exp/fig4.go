package exp

import (
	"fmt"

	"proxygraph/internal/apps"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

// Fig4 reproduces the paper's Fig 4: the per-machine execution profile of an
// imbalanced run (the default uniform partitioning, where the ladder's small
// machines straggle every superstep) against the proxy-guided balanced one.
// The per-machine busy/idle/straggler numbers come from trace.Summarize over
// the structured event stream — the same signal the paper reads off its
// per-machine timelines — instead of ad-hoc arithmetic on Result fields.
func (l *Lab) Fig4() (*metrics.Table, error) {
	cl := LadderC4()
	g, err := l.Graph(gen.RealGraphs()[2]) // social_network
	if err != nil {
		return nil, err
	}
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	app := apps.NewPageRank()
	t := metrics.NewTable("Fig 4: imbalanced (default) vs balanced (proxy) execution profile (pagerank, c4 ladder)",
		"system", "machine", "busy", "gather", "apply", "comm", "idle", "straggled")
	for _, sys := range []System{systems[0], systems[2]} { // default vs proxy (ours)
		shares, err := l.shares(cl, sys, app.Name())
		if err != nil {
			return nil, err
		}
		pl, err := partition.Apply(partition.NewHybrid(), g, shares, l.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		rec := trace.NewRecorder()
		res, err := apps.Run(app, pl, cl, engine.Options{Trace: trace.Multi(rec, l.Cfg.Collector)})
		if err != nil {
			return nil, err
		}
		sum := trace.Summarize(rec.Events)
		for _, m := range sum.Machines {
			t.AddRow(sys.Name, cl.Machines[m.Machine].Name,
				metrics.Seconds(m.BusySeconds), metrics.Seconds(m.GatherSeconds),
				metrics.Seconds(m.ApplySeconds), metrics.Seconds(m.CommSeconds),
				metrics.Seconds(m.IdleSeconds), fmt.Sprintf("%d/%d", m.StragglerSteps, sum.SyncSteps))
		}
		t.AddNote("%s: makespan %s, step imbalance %.2fx",
			sys.Name, metrics.Seconds(res.SimSeconds), sum.Imbalance)
	}
	t.AddNote("idle is barrier wait for slower machines; straggled counts supersteps a machine set the barrier")
	return t, nil
}
