package exp

import (
	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
)

// Fig10a reproduces the paper's Fig 10a: performance and energy on the local
// cluster whose machines share a frequency range but differ in core count
// (Case 2). Each application runs on the four real-world graphs with the
// Hybrid partitioner (the paper's best mixed cut); speedups and energy
// savings are relative to the default (uniform) system and averaged
// geometrically across graphs.
func (l *Lab) Fig10a() (*metrics.Table, error) {
	return l.figure10("Fig 10a: local cluster, same frequency range (Case 2)", Case2Cluster())
}

// Fig10b reproduces Fig 10b: the same comparison on the Case 3 cluster whose
// little machine is downclocked to 1.8GHz (the "tiny ARM-like server"
// projection).
func (l *Lab) Fig10b() (*metrics.Table, error) {
	return l.figure10("Fig 10b: local cluster, different frequency ranges (Case 3)", Case3Cluster())
}

func (l *Lab) figure10(title string, cl *cluster.Cluster) (*metrics.Table, error) {
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	reals, err := l.realGraphs()
	if err != nil {
		return nil, err
	}
	part := partition.NewHybrid()

	t := metrics.NewTable(title,
		"app", "speedup(prior)", "speedup(ours)", "energy saved(prior)", "energy saved(ours)", "CCR(ours)")
	var sPriorAll, sOursAll, ePriorAll, eOursAll []float64
	for _, app := range apps.All() {
		var sPrior, sOurs, ePrior, eOurs []float64
		for _, g := range reals {
			var times, energies [3]float64
			for i, sys := range systems {
				res, err := l.runWithSystem(cl, sys, app, g, part, l.Cfg.Collector)
				if err != nil {
					return nil, err
				}
				times[i] = res.SimSeconds
				energies[i] = res.EnergyJoules
			}
			sPrior = append(sPrior, times[0]/times[1])
			sOurs = append(sOurs, times[0]/times[2])
			ePrior = append(ePrior, 1-energies[1]/energies[0])
			eOurs = append(eOurs, 1-energies[2]/energies[0])
		}
		pool, err := l.Pool(cl, systems[2].Est)
		if err != nil {
			return nil, err
		}
		ccr, _ := pool.Get(app.Name())
		ratio := describeTwoMachineCCR(cl, ccr.Ratios)
		t.AddRow(app.Name(),
			metrics.Speedup(metrics.GeoMean(sPrior)),
			metrics.Speedup(metrics.GeoMean(sOurs)),
			metrics.Pct(metrics.Mean(ePrior)),
			metrics.Pct(metrics.Mean(eOurs)),
			ratio)
		sPriorAll = append(sPriorAll, sPrior...)
		sOursAll = append(sOursAll, sOurs...)
		ePriorAll = append(ePriorAll, ePrior...)
		eOursAll = append(eOursAll, eOurs...)
	}
	t.AddNote("averages over apps: prior %s / ours %s speedup; prior %s / ours %s energy saved (vs default, hybrid cut)",
		metrics.Speedup(metrics.GeoMean(sPriorAll)), metrics.Speedup(metrics.GeoMean(sOursAll)),
		metrics.Pct(metrics.Mean(ePriorAll)), metrics.Pct(metrics.Mean(eOursAll)))
	return t, nil
}

// describeTwoMachineCCR formats a two-group CCR as "1 : r" with the slow
// machine first; other sizes fall back to a blank.
func describeTwoMachineCCR(cl *cluster.Cluster, ratios map[string]float64) string {
	keys, _ := cl.Groups()
	if len(keys) != 2 {
		return ""
	}
	a, b := ratios[keys[0]], ratios[keys[1]]
	if a <= b {
		return "1 : " + metrics.F(b/a, 1)
	}
	return "1 : " + metrics.F(a/b, 1)
}
