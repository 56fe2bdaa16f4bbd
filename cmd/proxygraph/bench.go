package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"proxygraph/internal/exp"
	"proxygraph/internal/report"
	"proxygraph/internal/trace"
)

// benchCmd reproduces the paper's evaluation: every table and figure of
// Section V plus the DESIGN.md ablations, at a configurable fraction of the
// published graph sizes.
func benchCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	which := fs.String("exp", "all", "experiment name or 'all'")
	scale := fs.Int("scale", 64, "run graphs at 1/scale of Table II size (1 = full)")
	seed := fs.Uint64("seed", 42, "experiment seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	html := fs.String("html", "", "additionally write a self-contained HTML report here")

	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON of every traced engine run here")
	metricsOut := fs.String("metrics-out", "", "write Prometheus text-format metrics aggregated over the session here")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments (not of writing the -html/-trace-out/-metrics-out files) here, for go tool pprof")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}

	exps := exp.Catalog()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(w, "%-12s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	selected, err := selectExperiments(*which, exps)
	if err != nil {
		return err
	}

	// Open observability outputs before any experiment runs: a bad path must
	// fail in milliseconds, not after the whole catalog.
	outs, err := openSinks(*traceOut, *metricsOut)
	if err != nil {
		return err
	}
	defer outs.close()
	// Assign the recorder only when one exists: a nil *trace.Recorder stored
	// in the Collector interface field would pass the lab's != nil check and
	// crash the first traced run.
	cfg := exp.Config{Scale: *scale, Seed: *seed}
	var rec *trace.Recorder
	if outs != nil {
		rec = trace.NewRecorder()
		cfg.Collector = rec
	}
	var rep *report.Report
	if *html != "" {
		names := make([]string, len(selected))
		for i, e := range selected {
			names[i] = e.Name
		}
		rep = report.New("proxygraph: paper reproduction",
			fmt.Sprintf("scale 1/%d, seed %d, experiments: %s", *scale, *seed, strings.Join(names, ", ")))
	}
	stop, err := startCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	err = runExperiments(w, exp.NewLab(cfg), selected, *csv, rep)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	if rep != nil {
		f, err := os.Create(*html)
		if err != nil {
			return err
		}
		if err := closeAfter(f, rep.WriteHTML(f)); err != nil {
			return err
		}
		fmt.Fprintf(w, "# wrote HTML report with %d sections to %s\n", rep.Len(), *html)
	}
	if outs != nil {
		return outs.write(rec.Events, func(flagName, path string) {
			if flagName == "-trace-out" {
				fmt.Fprintf(w, "# wrote %d trace events to %s\n", len(rec.Events), path)
			} else {
				fmt.Fprintf(w, "# wrote metrics to %s\n", path)
			}
		})
	}
	return nil
}

// runExperiments runs each selected experiment on the lab, prints its tables,
// its wall time and the process's peak RSS so far, and adds the tables to rep
// when there is one.
func runExperiments(w io.Writer, lab *exp.Lab, selected []exp.Experiment, csv bool, rep *report.Report) error {
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, t := range tables {
			if csv {
				fmt.Fprintf(w, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintf(w, "\n%s", t)
			}
		}
		if rep != nil {
			rep.Add(tables...)
		}
		fmt.Fprintf(w, "# %s finished in %v, peak RSS %d MiB\n", e.Name, time.Since(start).Round(time.Millisecond), peakRSSMiB())
	}
	return nil
}

// peakRSSMiB returns the process's peak resident set so far, in MiB, or 0 if
// the kernel will not say. Linux reports ru_maxrss in KiB.
func peakRSSMiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) >> 10
}

// selectExperiments resolves the -exp flag against the catalog: "all" keeps
// catalog order, otherwise a comma-separated list is validated name by name.
func selectExperiments(which string, exps []exp.Experiment) ([]exp.Experiment, error) {
	if which == "all" {
		return exps, nil
	}
	var selected []exp.Experiment
	for _, n := range strings.Split(which, ",") {
		n = strings.TrimSpace(n)
		i := slices.IndexFunc(exps, func(e exp.Experiment) bool { return e.Name == n })
		if i < 0 {
			known := make([]string, len(exps))
			for j, e := range exps {
				known[j] = e.Name
			}
			slices.Sort(known)
			return nil, fmt.Errorf("unknown experiment %q; known: %s", n, strings.Join(known, ", "))
		}
		selected = append(selected, exps[i])
	}
	return selected, nil
}
