// Command proxygraph runs the paper's offline flow (§III, Fig 7a) one step
// per subcommand, the online step that partitions by CCR and executes, the
// §V-C cluster advisor and the Section V evaluation:
//
//	proxygraph gen -spec SyntheticGraph_two -scale 64 -out proxy2.bin  # Algorithm 1 proxy, or -list for Table II
//	proxygraph stats -file proxy2.bin -histogram                       # size, α (Eq 7 and MLE), degree histogram
//	proxygraph stats -vertices 4847571 -edges 68993773                 # α from |V| and |E| alone
//	proxygraph profile -cluster m4.2xlarge,c4.2xlarge -out pool.json   # CCR pool of every application
//	proxygraph partition -file proxy2.bin -algo hybrid -weights 1,3.5  # loads, mirrors, imbalance (Fig 7b)
//	proxygraph advise -budget 1.00 -objective speed-per-dollar         # cluster compositions under a budget
//	proxygraph run -app coloring -pool pool.json -trace                # partition by CCR, run, report (timeline)
//	proxygraph run -app kcore -repeat 200 -cpuprofile kcore.prof       # host wall time and profile of the runs
//	proxygraph bench -exp fig9 -scale 16                               # Section V tables and figures, or -list
//
// stats says whether the default proxy set covers the fitted α.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"proxygraph/internal/trace"
)

type command struct {
	name, summary string
	run           func(args []string, stdout io.Writer) error
}

func commands() []command {
	return []command{
		{"gen", "generate a Table II graph or a custom synthetic one", genCmd},
		{"stats", "summarize a graph file, or fit α from -vertices/-edges", statsCmd},
		{"partition", "partition a graph file; report loads, mirrors, imbalance", partitionCmd},
		{"profile", "profile every application into a CCR pool (JSON)", profileCmd},
		{"advise", "rank cluster compositions under an hourly budget", adviseCmd},
		{"run", "run one application end to end: CCR, partition, execute, report", runCmd},
		{"bench", "reproduce the paper's Section V tables and figures", benchCmd},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the exit code: 1 when it fails, 2
// when there is no such subcommand. Errors go to stderr as one line.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{""}
	}
	for _, c := range commands() {
		if c.name == args[0] {
			err := c.run(args[1:], stdout)
			if err == nil || errors.Is(err, flag.ErrHelp) {
				return 0
			}
			fmt.Fprintf(stderr, "proxygraph %s: %v\n", c.name, err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "proxygraph: unknown subcommand %q\nusage: proxygraph <subcommand> [flags]\n", args[0])
	for _, c := range commands() {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
	}
	return 2
}

// parseFlags parses a subcommand's flags, leaving parse errors for run to
// print. -h lists the flags on stdout.
func parseFlags(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); !errors.Is(err, flag.ErrHelp) {
		return err
	}
	fs.SetOutput(stdout)
	fs.PrintDefaults()
	return flag.ErrHelp
}

// startCPUProfile starts a CPU profile written to path; stop ends it and
// closes the file. An empty path profiles nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		return nil
	}, nil
}

// sinks are the files the -trace-out and -metrics-out flags name, created
// before the work they record so a bad path fails in milliseconds instead of
// after the run.
type sinks struct {
	traceFile, metricsFile *os.File
}

// openSinks creates the -trace-out and -metrics-out files; an empty path
// skips that file, and a nil *sinks means neither flag was given. Errors name
// the flag, and a failed -metrics-out closes an already created -trace-out
// file.
func openSinks(tracePath, metricsPath string) (*sinks, error) {
	if tracePath == "" && metricsPath == "" {
		return nil, nil
	}
	s := &sinks{}
	var err error
	if tracePath != "" {
		if s.traceFile, err = os.Create(tracePath); err != nil {
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
	}
	if metricsPath != "" {
		if s.metricsFile, err = os.Create(metricsPath); err != nil {
			s.close()
			return nil, fmt.Errorf("-metrics-out: %w", err)
		}
	}
	return s, nil
}

// write renders events into each open file and closes it: a Chrome
// trace-event JSON for -trace-out, then a Prometheus text dump of
// trace.Observe's registry for -metrics-out. After each file is complete it
// calls wrote with the flag ("-trace-out" or "-metrics-out") and the file's
// path, so the subcommand prints its own summary line.
func (s *sinks) write(events []trace.Event, wrote func(flagName, path string)) error {
	if f := s.traceFile; f != nil {
		if err := closeAfter(f, trace.WriteChromeTrace(f, events)); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		wrote("-trace-out", f.Name())
	}
	if f := s.metricsFile; f != nil {
		reg := trace.NewRegistry()
		trace.Observe(reg, events)
		if err := closeAfter(f, reg.WritePrometheus(f)); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		wrote("-metrics-out", f.Name())
	}
	return nil
}

// close releases the files on a path that fails before write; after write it
// only repeats the closes, whose errors write has already reported.
func (s *sinks) close() {
	if s == nil {
		return
	}
	for _, f := range []*os.File{s.traceFile, s.metricsFile} {
		if f != nil {
			f.Close()
		}
	}
}

// closeAfter closes f and returns the write error, or the close error when
// the write succeeded.
func closeAfter(f *os.File, err error) error {
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
