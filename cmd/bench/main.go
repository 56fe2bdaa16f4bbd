// Command bench reproduces the paper's evaluation: every table and figure
// of Section V plus the DESIGN.md ablations, at a configurable fraction of
// the published graph sizes.
//
// Usage:
//
//	bench                       # everything at 1/64 scale
//	bench -exp fig9 -scale 16   # one experiment, bigger graphs
//	bench -exp evolve -cpuprofile evolve.prof
//	bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"proxygraph/internal/cliutil"
	"proxygraph/internal/exp"
	"proxygraph/internal/metrics"
	"proxygraph/internal/report"
	"proxygraph/internal/trace"
)

type experiment struct {
	name string
	desc string
	run  func(*exp.Lab) ([]*metrics.Table, error)
}

func one(f func(*exp.Lab) (*metrics.Table, error)) func(*exp.Lab) ([]*metrics.Table, error) {
	return func(l *exp.Lab) ([]*metrics.Table, error) {
		t, err := f(l)
		if err != nil {
			return nil, err
		}
		return []*metrics.Table{t}, nil
	}
}

func experiments() []experiment {
	return []experiment{
		{"table1", "machine configurations", func(l *exp.Lab) ([]*metrics.Table, error) {
			return []*metrics.Table{exp.TableI()}, nil
		}},
		{"table2", "graphs with fitted alphas", one((*exp.Lab).TableII)},
		{"fig2", "estimated vs real speedup scaling", one((*exp.Lab).Fig2)},
		{"fig4", "imbalanced vs balanced per-machine execution profile", one((*exp.Lab).Fig4)},
		{"fig6", "power-law degree distribution", one((*exp.Lab).Fig6)},
		{"fig8a", "CCR accuracy, c4 ladder", one((*exp.Lab).Fig8a)},
		{"fig8b", "CCR accuracy, 2xlarge categories", one((*exp.Lab).Fig8b)},
		{"fig9", "Case 1 runtimes (EC2, 4 apps x 4 graphs x 5 cuts)", func(l *exp.Lab) ([]*metrics.Table, error) {
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
		{"fig10a", "Case 2 performance and energy", one((*exp.Lab).Fig10a)},
		{"fig10b", "Case 3 performance and energy", one((*exp.Lab).Fig10b)},
		{"fig11", "cost/performance Pareto", one((*exp.Lab).Fig11)},
		{"replication", "replication factor by algorithm (incl. HDRF)", one((*exp.Lab).ReplicationStudy)},
		{"ingress", "loading/finalization makespans", one((*exp.Lab).IngressStudy)},
		{"dynamic", "Mizan-style dynamic balancing vs static CCR ingress", one((*exp.Lab).DynamicStudy)},
		{"amortization", "one-time profiling cost vs session gains", one((*exp.Lab).AmortizationStudy)},
		{"session", "placement cache vs rebuilt ingress, charged sessions", one((*exp.Lab).SessionThroughputStudy)},
		{"recovery", "checkpoint interval vs crash-recovery cost", one((*exp.Lab).RecoveryStudy)},
		{"clusterbfs", "proxy-predicted vs measured placement for bitset-state batched traversal", one((*exp.Lab).ClusterBFSStudy)},
		{"evolve", "evolving graphs: amended placement + resumed apps vs full rebuild", one((*exp.Lab).EvolveStudy)},
		{"overload", "multi-tenant service under bursty overload (admission, shedding, retries)", one((*exp.Lab).ServiceOverloadStudy)},
		{"freqsweep", "CCR vs little-machine frequency", one((*exp.Lab).FrequencySweep)},
		{"abl-hybrid", "hybrid threshold sweep", one((*exp.Lab).AblationHybridThreshold)},
		{"abl-ginger", "ginger gamma sweep", one((*exp.Lab).AblationGingerGamma)},
		{"abl-proxyset", "proxy set coverage", one((*exp.Lab).AblationProxySet)},
		{"abl-scale", "CCR scale invariance", one((*exp.Lab).AblationScaleInvariance)},
		{"abl-subsample", "proxies vs natural-graph subsampling", one((*exp.Lab).AblationSubsample)},
	}
}

func main() {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		which = flag.String("exp", "all", "experiment name or 'all'")
		scale = flag.Int("scale", 64, "run graphs at 1/scale of Table II size (1 = full)")
		seed  = flag.Uint64("seed", 42, "experiment seed")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		html  = flag.String("html", "", "additionally write a self-contained HTML report here")

		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of every traced engine run here")
		metricsOut = flag.String("metrics-out", "", "write Prometheus text-format metrics aggregated over the session here")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments (not of writing the -html/-trace-out/-metrics-out files) here, for go tool pprof")
	)
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}

	selected, err := selectExperiments(*which, exps)
	if err != nil {
		fatal(err)
	}
	names := map[string]experiment{}
	for _, e := range exps {
		names[e.name] = e
	}

	// Open observability outputs before any experiment runs: a bad path must
	// fail in milliseconds, not after the whole catalog.
	var profileFile *os.File
	var rec *trace.Recorder
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		profileFile = f
	}
	outs, err := cliutil.OpenSinks(*traceOut, *metricsOut)
	if err != nil {
		fatal(err)
	}
	if outs != nil {
		rec = trace.NewRecorder()
	}

	// Assign the recorder only when one exists: a nil *trace.Recorder stored
	// in the Collector interface field would pass the lab's != nil check and
	// crash the first traced run.
	cfg := exp.Config{Scale: *scale, Seed: *seed}
	if rec != nil {
		cfg.Collector = rec
	}
	lab := exp.NewLab(cfg)
	var rep *report.Report
	if *html != "" {
		rep = report.New("proxygraph: paper reproduction",
			fmt.Sprintf("scale 1/%d, seed %d, experiments: %s", *scale, *seed, strings.Join(selected, ", ")))
	}
	if profileFile != nil {
		if err := pprof.StartCPUProfile(profileFile); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	for _, name := range selected {
		e := names[name]
		start := time.Now()
		tables, err := e.run(lab)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Printf("\n%s", t)
			}
		}
		if rep != nil {
			rep.Add(tables...)
		}
		fmt.Printf("# %s finished in %v\n", name, time.Since(start).Round(time.Millisecond))
	}
	if profileFile != nil {
		pprof.StopCPUProfile()
		if err := profileFile.Close(); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	if rep != nil {
		f, err := os.Create(*html)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteHTML(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote HTML report with %d sections to %s\n", rep.Len(), *html)
	}
	if outs != nil {
		err := outs.Write(rec.Events, func(flag, path string) {
			if flag == "-trace-out" {
				fmt.Printf("# wrote %d trace events to %s\n", len(rec.Events), path)
			} else {
				fmt.Printf("# wrote metrics to %s\n", path)
			}
		})
		if err != nil {
			fatal(err)
		}
	}
}

// selectExperiments resolves the -exp flag against the catalog: "all" keeps
// catalog order, otherwise a comma-separated list is validated name by name.
func selectExperiments(which string, exps []experiment) ([]string, error) {
	names := map[string]bool{}
	var order []string
	for _, e := range exps {
		names[e.name] = true
		order = append(order, e.name)
	}
	if which == "all" {
		return order, nil
	}
	var selected []string
	for _, n := range strings.Split(which, ",") {
		n = strings.TrimSpace(n)
		if !names[n] {
			known := append([]string(nil), order...)
			sort.Strings(known)
			return nil, fmt.Errorf("unknown experiment %q; known: %s", n, strings.Join(known, ", "))
		}
		selected = append(selected, n)
	}
	return selected, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
