package exp

import "proxygraph/internal/metrics"

// Experiment is one entry of the evaluation catalog: the name proxygraph
// bench selects it by, a one-line description and the Lab method behind it.
type Experiment struct {
	Name string
	Desc string
	Run  func(*Lab) ([]*metrics.Table, error)
}

func one(f func(*Lab) (*metrics.Table, error)) func(*Lab) ([]*metrics.Table, error) {
	return func(l *Lab) ([]*metrics.Table, error) {
		t, err := f(l)
		if err != nil {
			return nil, err
		}
		return []*metrics.Table{t}, nil
	}
}

// Catalog returns every experiment, in the order proxygraph bench runs them.
func Catalog() []Experiment {
	return []Experiment{
		{"table1", "machine configurations", func(*Lab) ([]*metrics.Table, error) {
			return []*metrics.Table{TableI()}, nil
		}},
		{"table2", "graphs with fitted alphas", one((*Lab).TableII)},
		{"fig2", "estimated vs real speedup scaling", one((*Lab).Fig2)},
		{"fig4", "imbalanced vs balanced per-machine execution profile", one((*Lab).Fig4)},
		{"fig6", "power-law degree distribution", one((*Lab).Fig6)},
		{"fig8a", "CCR accuracy, c4 ladder", one((*Lab).Fig8a)},
		{"fig8b", "CCR accuracy, 2xlarge categories", one((*Lab).Fig8b)},
		{"fig9", "Case 1 runtimes (EC2, 4 apps x 4 graphs x 5 cuts)", func(l *Lab) ([]*metrics.Table, error) {
			tables, err := l.Fig9()
			if err != nil {
				return nil, err
			}
			summary, err := l.Fig9Summary()
			if err != nil {
				return nil, err
			}
			return append(tables, summary), nil
		}},
		{"fig10a", "Case 2 performance and energy", one((*Lab).Fig10a)},
		{"fig10b", "Case 3 performance and energy", one((*Lab).Fig10b)},
		{"fig11", "cost/performance Pareto", one((*Lab).Fig11)},
		{"replication", "replication factor by algorithm (incl. HDRF)", one((*Lab).ReplicationStudy)},
		{"ingress", "loading/finalization makespans", one((*Lab).IngressStudy)},
		{"dynamic", "Mizan-style dynamic balancing vs static CCR ingress", one((*Lab).DynamicStudy)},
		{"amortization", "one-time profiling cost vs session gains", one((*Lab).AmortizationStudy)},
		{"session", "placement cache vs rebuilt ingress, charged sessions", one((*Lab).SessionThroughputStudy)},
		{"recovery", "checkpoint interval vs crash-recovery cost", one((*Lab).RecoveryStudy)},
		{"clusterbfs", "proxy-predicted vs measured placement for bitset-state batched traversal", one((*Lab).ClusterBFSStudy)},
		{"evolve", "evolving graphs: amended placement + resumed apps vs full rebuild", one((*Lab).EvolveStudy)},
		{"overload", "multi-tenant service under bursty overload (admission, shedding, retries)", one((*Lab).ServiceOverloadStudy)},
		{"freqsweep", "CCR vs little-machine frequency", one((*Lab).FrequencySweep)},
		{"abl-hybrid", "hybrid threshold sweep", one((*Lab).AblationHybridThreshold)},
		{"abl-ginger", "ginger gamma sweep", one((*Lab).AblationGingerGamma)},
		{"abl-proxyset", "proxy set coverage", one((*Lab).AblationProxySet)},
		{"abl-scale", "CCR scale invariance", one((*Lab).AblationScaleInvariance)},
		{"abl-subsample", "proxies vs natural-graph subsampling", one((*Lab).AblationSubsample)},
	}
}
