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
	"proxygraph/internal/report"
	"proxygraph/internal/trace"
)

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

	exps := exp.Catalog()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}

	selected, err := selectExperiments(*which, exps)
	if err != nil {
		fatal(err)
	}
	names := map[string]exp.Experiment{}
	for _, e := range exps {
		names[e.Name] = e
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
		start := time.Now()
		tables, err := names[name].Run(lab)
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
func selectExperiments(which string, exps []exp.Experiment) ([]string, error) {
	names := map[string]bool{}
	var order []string
	for _, e := range exps {
		names[e.Name] = true
		order = append(order, e.Name)
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
