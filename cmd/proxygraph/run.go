package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/fault"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"
)

// runCmd executes one graph application end-to-end on a simulated
// heterogeneous cluster, the paper's online step: load or generate the graph,
// pick the CCR (from a profiled pool file, live proxy profiling, prior-work
// estimation or the uniform default), partition, run, and report runtime,
// energy, per-machine loads and optionally the superstep timeline.
func runCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	appName := fs.String("app", "pagerank", "application: pagerank, coloring, connected_components, triangle_count, bfs, sssp, kcore, pagerank_async, cluster_bfs, landmark_oracle, kseed_reach")
	sources := fs.String("sources", "", "comma-separated root vertices for the BFS family (bfs/sssp take the first; cluster_bfs/kseed_reach take the whole list, up to 64 distinct)")
	landmarks := fs.Int("landmarks", 0, "landmark count for landmark_oracle (0 keeps the default 16)")
	file := fs.String("file", "", "graph file (.txt or .bin); overrides -spec")
	specName := fs.String("spec", "social_network", "Table II spec to generate when no -file is given")
	scale := fs.Int("scale", 64, "spec scale divisor")
	clusterSpec := fs.String("cluster", "xeon:4:2.5,xeon:12:2.5", "machines: catalog names or name:cores:freqGHz")
	algo := fs.String("algo", "hybrid", "partitioning algorithm")
	estimator := fs.String("estimator", "proxy", "CCR source: proxy, prior-work, default")
	poolFile := fs.String("pool", "", "CCR pool JSON from proxygraph profile (overrides -estimator)")
	seed := fs.Uint64("seed", 42, "run seed")
	timeline := fs.Bool("trace", false, "print the superstep timeline")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON of the run here (open chrome://tracing or ui.perfetto.dev)")
	metricsOut := fs.String("metrics-out", "", "write Prometheus text-format metrics of the run here")

	faultSeed := fs.Uint64("fault-seed", 0, "fault schedule seed (0 disables fault injection)")
	crashes := fs.Int("crashes", 0, "scheduled machine crashes")
	stragglers := fs.Int("stragglers", 0, "scheduled transient stragglers")
	netFaults := fs.Int("netfaults", 0, "scheduled network degradation windows")
	checkpoint := fs.Int("checkpoint", 0, "checkpoint every N supersteps (0 disables)")
	recovery := fs.String("recovery", "checkpoint", "crash recovery policy: checkpoint, restart")

	repeat := fs.Int("repeat", 1, "run the application this many times on the one placement and also report the fastest run's host wall time (the simulated report does not depend on the count)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the application runs (not of graph generation, profiling or ingress) here, for go tool pprof")

	evolveInserts := fs.Int("evolve-inserts", 0, "after the run, evolve the graph by this many random edge insertions and re-run incrementally")
	evolveDeletes := fs.Int("evolve-deletes", 0, "after the run, evolve the graph by this many random edge deletions and re-run incrementally")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	if err := configureSources(app, *sources, *landmarks); err != nil {
		return err
	}
	cl, err := cluster.Parse(*clusterSpec)
	if err != nil {
		return err
	}
	g, err := runGraph(*file, *specName, *scale, *seed)
	if err != nil {
		return err
	}
	ccr, err := resolveCCR(cl, app, *poolFile, *estimator, *scale, *seed)
	if err != nil {
		return err
	}
	shares, err := ccr.SharesFor(cl)
	if err != nil {
		return err
	}
	part, err := partition.ByName(*algo)
	if err != nil {
		return err
	}

	// Place through the content-keyed cache: for a plain run this is exactly
	// partition.Apply, but it leaves a clean base entry behind for the
	// -evolve-* path to amend instead of re-ingressing.
	cache := workload.NewPlacementCache()
	pl, _, err := cache.Place(part, g, shares, *seed)
	if err != nil {
		return err
	}
	ingress, err := engine.Ingress(pl, cl)
	if err != nil {
		return err
	}
	opts, sched, err := faultOptions(cl, *faultSeed, *crashes, *stragglers, *netFaults, *checkpoint, *recovery)
	if err != nil {
		return err
	}
	// Open the observability outputs before the run so a bad path fails fast
	// instead of after minutes of simulation.
	outs, err := openSinks(*traceOut, *metricsOut)
	if err != nil {
		return err
	}
	defer outs.close()
	// The timeline, the straggler shares and the sinks all read the last
	// run's events.
	rec := trace.NewRecorder()
	res, fastest, err := runRepeated(app, pl, cl, opts, rec, *repeat, *cpuProfile)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s on %s (%d vertices, %d edges), %d machines, %s cut\n",
		app.Name(), g.Name, g.NumVertices, g.NumEdges(), cl.Size(), part.Name())
	fmt.Fprintf(w, "ingress makespan   %s\n", metrics.Seconds(ingress.Makespan))
	fmt.Fprintf(w, "execution makespan %s over %d supersteps\n", metrics.Seconds(res.SimSeconds), res.Supersteps)
	fmt.Fprintf(w, "energy             %.1f J\n", res.EnergyJoules)
	fmt.Fprintf(w, "replication factor %.3f\n", pl.ReplicationFactor())
	for p, m := range cl.Machines {
		fmt.Fprintf(w, "  m%-2d %-14s busy %s  sent %.0f KB  share %.1f%%\n",
			p, m.Name, metrics.Seconds(res.BusySeconds[p]), res.CommBytes[p]/1024, shares[p]*100)
	}
	if stragglers := trace.StragglerShare(rec.Events); stragglers != nil {
		fmt.Fprintf(w, "straggler shares   %v\n", formatShares(stragglers))
	}
	if *repeat > 1 {
		fmt.Fprintf(w, "host wall time     %s (fastest of %d runs)\n", metrics.Seconds(fastest.Seconds()), *repeat)
	}
	if opts != nil {
		fmt.Fprintf(w, "fault schedule     %s\n", sched)
		fmt.Fprintf(w, "checkpoints        %d written, %d recoveries\n", res.Checkpoints, res.Recoveries)
	}
	if *timeline {
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Gantt(rec.Events, res.App+" on "+res.Graph, res.SimSeconds, 48))
	}
	if outs != nil {
		err := outs.write(rec.Events, func(flagName, path string) {
			if flagName == "-trace-out" {
				fmt.Fprintf(w, "trace              %s (%d events)\n", path, len(rec.Events))
			} else {
				fmt.Fprintf(w, "metrics            %s\n", path)
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Summarize(rec.Events).String())
	}

	if *evolveInserts > 0 || *evolveDeletes > 0 {
		return runEvolved(w, app, res, g, cl, cache, part, shares, *evolveInserts, *evolveDeletes, *seed)
	}
	return nil
}

// runGraph returns run's input graph: the -file graph or, without one, the
// named Table II spec generated at 1/scale.
func runGraph(file, specName string, scale int, seed uint64) (*graph.Graph, error) {
	if file != "" {
		return loadGraph(file)
	}
	spec, err := tableII(specName)
	if err != nil {
		return nil, err
	}
	return gen.Generate(spec.Scale(scale), seed)
}

// runEvolved mutates the loaded graph by a random batch of *seed-derived edge
// insertions and deletions, then re-runs the application incrementally: the
// placement is revalidated through the cache's content-keyed PlaceEvolved
// (amending the base placement instead of re-ingressing from scratch), and
// applications with a resume path (pagerank, connected_components) warm-start
// from the base run's converged output so re-execution scales with the
// disturbance rather than the graph.
func runEvolved(w io.Writer, app apps.App, base *engine.Result, g *graph.Graph, cl *cluster.Cluster,
	cache *workload.PlacementCache, part partition.Partitioner, shares []float64,
	inserts, deletes int, seed uint64) error {
	d, err := gen.RandomDelta(g, gen.DeltaSpec{Inserts: inserts, Deletes: deletes, Time: 1}, seed+1)
	if err != nil {
		return fmt.Errorf("-evolve: %w", err)
	}
	evolved, err := d.Apply(g)
	if err != nil {
		return fmt.Errorf("-evolve: %w", err)
	}
	pl, outcome, err := cache.PlaceEvolved(part, g, d, evolved, shares, seed)
	if err != nil {
		return fmt.Errorf("-evolve: %w", err)
	}
	warm := app
	how := "cold re-run (no resume path)"
	switch a := app.(type) {
	case *apps.PageRank:
		warm = a.Resume(base.Output.([]float64))
		how = "resumed from prior ranks"
	case *apps.ConnectedComponents:
		warm = a.Resume(base.Output.(apps.Components).Labels, d, evolved)
		how = "resumed from prior labels"
	}
	res, err := runTraced(warm, pl, cl, nil, nil)
	if err != nil {
		return fmt.Errorf("-evolve: %w", err)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "evolved %s: +%d/-%d edges -> %d vertices, %d edges\n",
		g.Name, len(d.Inserts), len(d.Deletes), evolved.NumVertices, evolved.NumEdges())
	fmt.Fprintf(w, "placement          %s, %s\n", outcome, how)
	fmt.Fprintf(w, "execution makespan %s over %d supersteps (base: %s over %d)\n",
		metrics.Seconds(res.SimSeconds), res.Supersteps,
		metrics.Seconds(base.SimSeconds), base.Supersteps)
	return nil
}

// configureSources applies the -sources/-landmarks flags to the BFS-family
// applications. Malformed sets (out of range, duplicated, more than 64) are
// rejected with typed errors by the apps themselves at run time.
func configureSources(app apps.App, list string, landmarks int) error {
	var roots []graph.VertexID
	if list != "" {
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
			if err != nil {
				return fmt.Errorf("-sources: %w", err)
			}
			roots = append(roots, graph.VertexID(v))
		}
	}
	if a, ok := app.(*apps.LandmarkOracle); ok {
		if len(roots) > 0 {
			return fmt.Errorf("-sources: landmark_oracle picks its own roots by degree (use -landmarks to set how many)")
		}
		if landmarks > 0 {
			a.K = landmarks
		}
		return nil
	}
	if landmarks > 0 {
		return fmt.Errorf("-landmarks only applies to landmark_oracle, not %s", app.Name())
	}
	if len(roots) == 0 {
		return nil
	}
	switch a := app.(type) {
	case *apps.BFS:
		a.Source = roots[0]
	case *apps.SSSP:
		a.Source = roots[0]
	case *apps.ClusterBFS:
		a.Sources = roots
	case *apps.KSeedReach:
		a.Seeds = roots
	default:
		return fmt.Errorf("-sources: %s takes no source vertices", app.Name())
	}
	return nil
}

// runRepeated runs the app repeat times on the one placement and returns the
// last run's result with the fastest run's host wall time. Every run computes
// the same result; the repeats exist to time and, with a profile path, to
// profile the application on the host — the CPU profile covers exactly these
// runs. Only the last run carries the trace recorder, so a trace is one run's.
func runRepeated(app apps.App, pl *engine.Placement, cl *cluster.Cluster, opts *engine.Options,
	rec *trace.Recorder, repeat int, profilePath string) (res *engine.Result, fastest time.Duration, err error) {
	stop, err := startCPUProfile(profilePath)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if serr := stop(); serr != nil && err == nil {
			res, err = nil, serr
		}
	}()
	for i := 1; i <= repeat; i++ {
		last := rec
		if i < repeat {
			last = nil
		}
		start := time.Now()
		if res, err = runTraced(app, pl, cl, opts, last); err != nil {
			return nil, 0, err
		}
		if wall := time.Since(start); i == 1 || wall < fastest {
			fastest = wall
		}
	}
	return res, fastest, nil
}

// runTraced executes the app with the requested fault options and trace
// recorder attached. Every app takes the recorder; apps.Run refuses fault
// injection and checkpointing on an app off the synchronous GAS engine.
func runTraced(app apps.App, pl *engine.Placement, cl *cluster.Cluster,
	opts *engine.Options, rec *trace.Recorder) (*engine.Result, error) {
	full := engine.Options{}
	if opts != nil {
		full = *opts
	}
	if rec != nil {
		full.Trace = rec
	}
	return apps.Run(app, pl, cl, full)
}

// faultHorizon bounds where scheduled fault events land: the first 16
// supersteps, which every Table II application reaches at default settings.
const faultHorizon = 16

// faultOptions translates the fault flags into engine options. A nil result
// means the plain Run path (no injection, no checkpointing).
func faultOptions(cl *cluster.Cluster, seed uint64, crashes, stragglers, netFaults, checkpoint int, recovery string) (*engine.Options, string, error) {
	if checkpoint < 0 {
		return nil, "", fmt.Errorf("-checkpoint interval must be non-negative, got %d", checkpoint)
	}
	var policy engine.RecoveryPolicy
	switch recovery {
	case "checkpoint":
		policy = engine.RecoverCheckpoint
	case "restart":
		policy = engine.RecoverRestart
	default:
		return nil, "", fmt.Errorf("unknown recovery policy %q (want checkpoint or restart)", recovery)
	}
	cfg := &engine.FaultConfig{CheckpointEvery: checkpoint, Policy: policy}
	schedText := "fault-free"
	if seed != 0 {
		sched, err := fault.NewSchedule(seed, fault.Spec{
			Machines:      cl.Size(),
			Horizon:       faultHorizon,
			Crashes:       crashes,
			Stragglers:    stragglers,
			NetworkFaults: netFaults,
		})
		if err != nil {
			return nil, "", err
		}
		cfg.Injector = sched
		schedText = sched.String()
	} else if crashes != 0 || stragglers != 0 || netFaults != 0 {
		return nil, "", fmt.Errorf("fault events scheduled without -fault-seed")
	} else if checkpoint == 0 {
		return nil, "", nil
	}
	return &engine.Options{Fault: cfg}, schedText, nil
}

// resolveCCR returns the app's CCR from the -pool file or, without one, from
// the -estimator.
func resolveCCR(cl *cluster.Cluster, app apps.App, poolFile, estimator string, scale int, seed uint64) (core.CCR, error) {
	if poolFile != "" {
		pool, err := core.LoadPoolFile(poolFile)
		if err != nil {
			return core.CCR{}, err
		}
		ccr, ok := pool.Get(app.Name())
		if !ok {
			return core.CCR{}, fmt.Errorf("pool %s has no CCR for %q", poolFile, app.Name())
		}
		return ccr, nil
	}
	est, err := parseEstimator(estimator, scale, seed)
	if err != nil {
		return core.CCR{}, err
	}
	return est.Estimate(cl, app)
}

func formatShares(shares []float64) string {
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = fmt.Sprintf("m%d:%.0f%%", i, s*100)
	}
	return strings.Join(parts, " ")
}
