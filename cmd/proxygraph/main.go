// Command proxygraph runs the paper's offline flow (§III, Fig 7a) one step
// per subcommand, plus the §V-C cluster advisor:
//
//	proxygraph gen -spec SyntheticGraph_two -scale 64 -out proxy2.bin  # Algorithm 1 proxy, or -list for Table II
//	proxygraph stats -file proxy2.bin -histogram                       # size, α (Eq 7 and MLE), degree histogram
//	proxygraph stats -vertices 4847571 -edges 68993773                 # α from |V| and |E| alone
//	proxygraph profile -cluster m4.2xlarge,c4.2xlarge -out pool.json   # CCR pool of every application
//	proxygraph partition -file proxy2.bin -algo hybrid -weights 1,3.5  # loads, mirrors, imbalance (Fig 7b)
//	proxygraph advise -budget 1.00 -objective speed-per-dollar         # cluster compositions under a budget
//
// stats says whether the default proxy set covers the fitted α.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
