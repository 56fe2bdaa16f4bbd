package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
	"proxygraph/internal/powerlaw"
)

// genCmd generates an Algorithm 1 proxy or a Table II emulation and writes
// it as a SNAP-style text edge list or in the compact binary format.
func genCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the Table II graph specs and exit")
	specName := fs.String("spec", "", "generate a named Table II spec")
	kind := fs.String("kind", "powerlaw", "generator kind: powerlaw, amazon, citation, social, wiki, rmat")
	vertices := fs.Int64("vertices", 100000, "vertex count (custom spec)")
	edges := fs.Int64("edges", 0, "target edge count (custom spec; 0 = natural density)")
	alpha := fs.Float64("alpha", 0, "power-law exponent (0 = fit from vertices/edges)")
	scale := fs.Int("scale", 1, "divide the spec's size by this factor")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("out", "", "output path (.bin for binary, otherwise text); empty = stats only")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}

	if *list {
		for _, s := range gen.TableII() {
			fmt.Fprintf(w, "%-22s |V|=%-9d |E|=%-9d kind=%-9s alpha=%v\n",
				s.Name, s.Vertices, s.Edges, s.Kind, s.Alpha)
		}
		return nil
	}
	spec, err := resolveSpec(*specName, *kind, *vertices, *edges, *alpha)
	if err != nil {
		return err
	}
	g, err := gen.Generate(spec.Scale(*scale), *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %q: %d vertices, %d edges, avg degree %.2f, alpha %.3f, ~%.1fMB\n",
		g.Name, g.NumVertices, g.NumEdges(), g.AvgDegree(), g.Alpha,
		float64(g.FootprintBytes())/(1<<20))
	if *out != "" {
		if err := graph.WriteFile(*out, g); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}
	return nil
}

// resolveSpec returns the named Table II spec or, without a name, a custom
// spec of the named kind.
func resolveSpec(name, kind string, vertices, edges int64, alpha float64) (gen.Spec, error) {
	if name != "" {
		return tableII(name)
	}
	for k := gen.KindPowerLaw; k <= gen.KindRMAT; k++ {
		if k.String() == kind {
			return gen.Spec{Name: "custom-" + kind, Vertices: vertices, Edges: edges, Alpha: alpha, Kind: k}, nil
		}
	}
	return gen.Spec{}, fmt.Errorf("unknown kind %q", kind)
}

// tableII returns the Table II spec with the given name.
func tableII(name string) (gen.Spec, error) {
	for _, s := range gen.TableII() {
		if s.Name == name {
			return s, nil
		}
	}
	return gen.Spec{}, fmt.Errorf("unknown spec %q (see proxygraph gen -list)", name)
}

// statsCmd summarizes a graph file, or fits α from -vertices/-edges alone.
func statsCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	file := fs.String("file", "", "graph file (.txt edge list or .bin)")
	vertices := fs.Int64("vertices", 0, "vertex count (when no file is given)")
	edges := fs.Int64("edges", 0, "edge count (when no file is given)")
	histogram := fs.Bool("histogram", false, "print the log-binned out-degree histogram (needs -file)")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}

	v, e := *vertices, *edges
	var g *graph.Graph
	switch {
	case *file != "":
		var err error
		if g, err = loadGraph(*file); err != nil {
			return err
		}
		v, e = int64(g.NumVertices), int64(g.NumEdges())
	case v <= 0:
		return errors.New("need -file or positive -vertices/-edges")
	case *histogram:
		return errors.New("-histogram needs -file")
	}
	alpha, fitErr := powerlaw.FitAlphaForGraph(v, e)
	if fitErr != nil && g == nil {
		return fitErr
	}

	if g != nil {
		fmt.Fprintf(w, "file            %s\n", *file)
	}
	fmt.Fprintf(w, "vertices        %d\n", v)
	fmt.Fprintf(w, "edges           %d\n", e)
	fmt.Fprintf(w, "avg degree      %.4f\n", float64(e)/float64(max(v, 1)))
	if g != nil {
		fmt.Fprintf(w, "max degree      %d\n", g.MaxDegree())
		fmt.Fprintf(w, "est. footprint  %.1f MB (text)\n", float64(g.FootprintBytes())/(1<<20))
		if err := g.Validate(); err != nil {
			fmt.Fprintf(w, "warning         %v\n", err)
		}
	}
	// The verdict is the proxy-coverage rule over the default proxy set.
	lo, hi, covered := core.DefaultProxyBand(alpha)
	switch {
	case fitErr != nil:
		fmt.Fprintf(w, "alpha (moment)  (fit failed: %v)\n", fitErr)
	case covered:
		fmt.Fprintf(w, "alpha (moment)  %.4f  (inside the default proxy band %.2f..%.2f)\n", alpha, lo, hi)
	default:
		fmt.Fprintf(w, "alpha (moment)  %.4f  (OUTSIDE the default proxy band: extend the proxy set)\n", alpha)
	}
	if g == nil {
		return nil
	}
	if mle, err := powerlaw.FitAlphaMLE(g.OutDegrees(), 1); err != nil {
		fmt.Fprintf(w, "alpha (MLE)     (fit failed: %v)\n", err)
	} else {
		fmt.Fprintf(w, "alpha (MLE)     %.4f  (Clauset-style, from the full degree sequence)\n", mle)
	}
	if !*histogram {
		return nil
	}
	t := metrics.NewTable("out-degree histogram (log buckets)", "degree", "vertices", "bar")
	buckets := graph.LogDegreeBuckets(g.OutDegrees())
	for b, total := range buckets {
		if total > 0 {
			bar := strings.Repeat("#", int(total*40/slices.Max(buckets)))
			t.AddRow(graph.LogDegreeBucketLabel(b), fmt.Sprint(total), bar)
		}
	}
	fmt.Fprintf(w, "\n%s", t)
	return nil
}

// partitionCmd splits a graph file across machines and reports the
// per-machine edge loads, replication factor and imbalance.
func partitionCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	file := fs.String("file", "", "graph file (.txt edge list or .bin)")
	algo := fs.String("algo", "hybrid", "algorithm: random, oblivious, grid, hybrid, ginger, hdrf")
	machines := fs.Int("machines", 2, "machine count (uniform shares)")
	weights := fs.String("weights", "", "comma-separated CCR weights overriding -machines")
	seed := fs.Uint64("seed", 42, "hashing seed")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}

	p, err := partition.ByName(*algo)
	if err != nil {
		return err
	}
	shares, err := parseShares(*weights, *machines)
	if err != nil {
		return err
	}
	g, err := loadGraph(*file)
	if err != nil {
		return err
	}
	pl, err := partition.Apply(p, g, shares, *seed)
	if err != nil {
		return err
	}

	t := metrics.NewTable(fmt.Sprintf("%s over %d machines (|V|=%d |E|=%d)",
		p.Name(), len(shares), g.NumVertices, g.NumEdges()),
		"machine", "target share", "edges", "actual share")
	for i, c := range pl.EdgeCounts() {
		t.AddRow(fmt.Sprint(i), metrics.Pct(shares[i]), fmt.Sprint(c),
			metrics.Pct(float64(c)/float64(g.NumEdges())))
	}
	t.AddNote("replication factor %.3f (avg mirrors per vertex)", pl.ReplicationFactor())
	t.AddNote("imbalance vs target %.3f (1.0 = perfect)", pl.Imbalance(shares))
	fmt.Fprint(w, t)
	return nil
}

// loadGraph reads the -file graph of stats, partition and run, naming it
// after the file when the file carries no name.
func loadGraph(path string) (*graph.Graph, error) {
	if path == "" {
		return nil, errors.New("need -file")
	}
	g, err := graph.ReadFile(path)
	if err == nil && g.Name == "" {
		g.Name = path
	}
	return g, err
}

// parseShares parses a comma-separated weight list ("1,3.5") into normalized
// shares; an empty string yields uniform shares over machines.
func parseShares(weights string, machines int) ([]float64, error) {
	if weights == "" {
		if machines < 1 || machines > engine.MaxMachines {
			return nil, fmt.Errorf("%d machines, want 1 to %d", machines, engine.MaxMachines)
		}
		return partition.UniformShares(machines), nil
	}
	var ws []float64
	for _, f := range strings.Split(weights, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", f, err)
		}
		ws = append(ws, v)
	}
	return partition.NormalizeShares(ws)
}
