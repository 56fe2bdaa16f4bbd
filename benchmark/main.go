// Command benchmark is the repository's one end-to-end benchmark: four fixed,
// seeded, closed-loop workloads driven through the public functions of the
// workload, partition, engine, apps, graph, gen, core and service packages.
// README.md in this directory is the manual; BENCHMARK.json at the repository
// root is the contract a driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the seed the committed numbers were taken with; seed 7 is
// the held-out confirmation seed. Both have pinned expectations.
const defaultSeed = 20160816

// config is one command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	smoke    bool
	// dir is this package's directory: testdata/ is read and out/ written there.
	dir string
}

// shortPass is the cycle count, and the sample count its floors insist on, of
// a pass that feeds only ungated layer metrics. A smoke run is two cycles of
// anything.
func (c config) shortPass() (cycles, minSamples int) {
	if c.smoke {
		return 2, 1
	}
	return layerMinSamples, layerMinSamples
}

// pass is the cycle count and minimum sample count of a workload's passes:
// the selected workload gets the count its measuring time buys, and in a
// traced run the other three get the short pass.
func (c config) pass(workload string) (cycles, minSamples int) {
	if c.smoke || workload != c.workload {
		return c.shortPass()
	}
	return timedCycles(workload, c.seconds), gatedMinSamples
}

// reps scales a probe's repetition count down to one for a smoke run.
func (c config) reps(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

// bencher is a workload that has been set up: three serial ones and the
// service.
type bencher interface {
	// run times cycles cycles; with a tracer, on the decomposed path.
	run(cycles int, tr *tracer) *pass
	// verify checks a pass's first-cycle outputs against the oracles and, for
	// a pinned seed, the expectations; failures land in the pass.
	verify(p *pass, pinned map[string]outcome)
	// outcomes returns what a pass computed, class by class.
	outcomes(p *pass) map[string]outcome
	// setupSpans returns the generation and pool-building times of set-up.
	setupSpans() (generateMs, buildPoolMs float64)
	close()
}

func (s *serial) close()                         {}
func (s *serial) setupSpans() (float64, float64) { return s.generateMs, s.buildPoolMs }
func (v *svc) setupSpans() (float64, float64)    { return v.generateMs, v.buildPoolMs }
func (s *serial) outcomes(p *pass) map[string]outcome {
	out := make(map[string]outcome, len(s.units))
	for i, u := range s.units {
		out[u.class] = p.first[i].forPinning()
	}
	return out
}
func (v *svc) outcomes(*pass) map[string]outcome {
	out := make(map[string]outcome, len(v.classes))
	for _, c := range v.classes {
		out[c.class] = c.want.forPinning()
	}
	return out
}

func setUp(workload string, seed uint64) (bencher, error) {
	if workload == serviceSteady {
		return newService(seed)
	}
	return newSerial(workload, seed)
}

// setupReps is how often a run sets its workload up: one set-up is a
// half-second measurement on a shared host, so the reported set-up time is the
// median of several.
const setupReps = 5

// setUpRepeated sets the workload up setupReps times and returns the last
// instance, the median set-up time in seconds, and the fastest generation and
// pool-building spans.
func setUpRepeated(cfg config) (b bencher, setupS, generateMs, buildPoolMs float64, err error) {
	var times []float64
	for r := 0; r < cfg.reps(setupReps); r++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		if b, err = setUp(cfg.workload, cfg.seed); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
		g, p := b.setupSpans()
		if r == 0 || g < generateMs {
			generateMs = g
		}
		if r == 0 || p < buildPoolMs {
			buildPoolMs = p
		}
	}
	return b, median(times), generateMs, buildPoolMs, nil
}

// record is everything one run knows; it is printed whole, and written to
// out/, so that a number is never read without its host, seed and counts.
type record struct {
	Host            hostInfo          `json:"host"`
	Workload        string            `json:"workload"`
	Seed            uint64            `json:"seed"`
	Traced          bool              `json:"traced"`
	Cycles          map[string]int    `json:"cycles"`
	SamplesPerClass int               `json:"samples_per_class"`
	HostStealPct    float64           `json:"host_steal_pct"`
	Ops             int               `json:"ops"`
	OpsFailed       int               `json:"ops_failed"`
	Errors          []string          `json:"errors,omitempty"`
	JobsPerCycle    int               `json:"jobs_per_cycle"`
	GathersPerCycle float64           `json:"gathers_per_cycle"`
	Classes         []classRow        `json:"classes"`
	Metrics         map[string]metric `json:"metrics"`
}

// classRow is one class's timing in the selected workload's RunJob pass.
type classRow struct {
	Class   string  `json:"class"`
	FloorMs float64 `json:"floor_ms"`
	P50Ms   float64 `json:"p50_ms"`
	Samples int     `json:"samples"`
}

func (r *record) absorb(p *pass) {
	r.Ops += p.ops
	r.OpsFailed += p.failed
	for _, e := range p.errs {
		if len(r.Errors) < 10 {
			r.Errors = append(r.Errors, e)
		}
	}
}

func newRecord(cfg config) *record {
	return &record{
		Host:     readHostInfo(),
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Traced:   cfg.traced,
		Cycles:   map[string]int{},
		Metrics:  map[string]metric{},
	}
}

// describe fills the record's rows about the selected workload's RunJob pass.
func (r *record) describe(p *pass) {
	r.SamplesPerClass = p.cycles
	r.HostStealPct = p.stealPct
	r.GathersPerCycle = p.gathers
	r.JobsPerCycle = p.ops / p.cycles
	for i, class := range p.classes {
		floor, _ := floorOf(p.samples[i], 1)
		r.Classes = append(r.Classes, classRow{
			Class:   class,
			FloorMs: floor,
			P50Ms:   median(p.samples[i]),
			Samples: len(p.samples[i]),
		})
	}
}

// endToEnd measures the six gated metrics of cfg.workload.
func endToEnd(cfg config, exp expectations) (*record, error) {
	rec := newRecord(cfg)
	pinned, err := exp.lookup(cfg.seed, cfg.workload)
	if err != nil {
		return nil, err
	}
	b, setupS, _, _, err := setUpRepeated(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	cycles, minSamples := cfg.pass(cfg.workload)
	rec.Cycles[cfg.workload] = cycles
	p := b.run(cycles, nil)
	b.verify(p, pinned)
	rec.absorb(p)
	rec.describe(p)

	floor, err := classSum(p.samples, minSamples)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":            setupS,
		"cycle_floor_ms":     floor,
		"alloc_mb_per_cycle": float64(p.allocBytes) / 1e6 / float64(cycles),
		"allocs_per_cycle":   float64(p.mallocs) / float64(cycles),
		"live_heap_mb":       float64(p.liveHeapBytes) / 1e6,
		"sim_s_per_cycle":    p.simSeconds,
	}
	for _, m := range endToEndUnits {
		rec.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return rec, nil
}

// traced measures the per-layer metrics. Every workload is passed over twice,
// on the RunJob path and then decomposed into spans, and the two must compute
// the same outcomes; the selected workload gets its full cycle count and its
// spans are written to out/trace-<workload>.json.
func traced(cfg config, exp expectations) (*record, error) {
	rec := newRecord(cfg)
	layers := map[string]float64{}

	selected, _, generateMs, buildPoolMs, err := setUpRepeated(cfg)
	if err != nil {
		return nil, err
	}
	layers["gen.generate_ms"] = generateMs
	layers["core.build_pool_ms"] = buildPoolMs

	for _, name := range workloadNames {
		b := selected
		if name != cfg.workload {
			if b, err = setUp(name, cfg.seed); err != nil {
				return nil, fmt.Errorf("set-up of %s: %w", name, err)
			}
		}
		if err := tracedWorkload(cfg, exp, rec, layers, name, b); err != nil {
			b.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		b.close()
	}
	for _, m := range perLayerUnits {
		v, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("the traced run measured no %s", m.name)
		}
		rec.Metrics[m.name] = metric{v, m.unit}
	}
	return rec, nil
}

// tracedWorkload makes the two passes over one workload and files what they
// measured under the layers whose home it is.
func tracedWorkload(cfg config, exp expectations, rec *record, layers map[string]float64, name string, b bencher) error {
	pinned, err := exp.lookup(cfg.seed, name)
	if err != nil {
		return err
	}
	cycles, minSamples := cfg.pass(name)
	rec.Cycles[name] = cycles

	ref := b.run(cycles, nil)
	b.verify(ref, pinned)
	rec.absorb(ref)
	tr := newTracer(cycles * 64)
	dec := b.run(cycles, tr)
	rec.absorb(dec)
	// The decomposed path must compute what RunJob computes.
	want, got := b.outcomes(ref), b.outcomes(dec)
	for class, w := range want {
		if err := sameRun(w, got[class]); err != nil {
			rec.OpsFailed++
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s %s: decomposed path: %v", name, class, err))
		}
	}
	samples := selfSamplesMs(tr.spans)
	// file sets, for each span, the metric named after it and the unit to the
	// span's floor.
	file := func(unit string, perMs float64, spans ...string) error {
		for _, span := range spans {
			f, err := layerFloor(samples, span, minSamples)
			if err != nil {
				return err
			}
			layers[span+"_"+unit] = f * perMs
		}
		return nil
	}

	switch s := b.(type) {
	case *serial:
		switch name {
		case coldIngest:
			counts := s.cacheCounts()
			// The counts cover both passes, but the decomposed one does not
			// touch the cache.
			layers["workload.cache_amends"] = float64(counts.Amends) / float64(cycles)
			layers["workload.cache_misses"] = float64(counts.Misses) / float64(cycles)
			if err := file("ms", 1, "workload.fingerprint_cold", "partition.hybrid_ingress", "engine.new_placement",
				"graph.delta_apply", "workload.evolve_fingerprint", "partition.hybrid_amend", "apps.cc_resume_run"); err != nil {
				return err
			}
			for _, part := range []string{"random", "oblivious", "ginger", "hdrf"} {
				ms, err := ingressProbe(s, part, cfg.reps(10))
				if err != nil {
					return err
				}
				layers["partition."+part+"_ingress_ms"] = ms
			}
		case warmDense:
			// Hits of the RunJob pass alone: the decomposed pass hits too.
			layers["workload.cache_hits"] = float64(s.cacheCounts().Hits) / float64(2*cycles)
			if err := file("ms", 1, "apps.pagerank_run", "apps.cc_run"); err != nil {
				return err
			}
			if err := file("us", 1e3, "workload.cache_place_hit", "workload.runjob_self"); err != nil {
				return err
			}
			layers["engine.ns_per_gather"] = (layers["apps.pagerank_run_ms"] + layers["apps.cc_run_ms"]) * 1e6 / ref.gathers
		case warmFrontier:
			if err := file("ms", 1, "apps.sssp_run", "apps.bfs_run", "apps.kcore_run", "apps.cluster_bfs_run"); err != nil {
				return err
			}
			kcoreSteps := 0
			for i, u := range s.units {
				if u.layer == "apps.kcore_run" {
					kcoreSteps += ref.first[i].Supersteps
				}
			}
			layers["engine.us_per_superstep"] = layers["apps.kcore_run_ms"] * 1e3 / float64(kcoreSteps)
			shortCycles, shortMin := cfg.shortPass()
			if layers["trace.recorder_overhead_pct"], err = recorderOverhead(s, shortCycles, shortMin); err != nil {
				return err
			}
		}
	case *svc:
		if err := serviceLayers(s.layers, minSamples, layers); err != nil {
			return err
		}
		if layers["service.new_ms"], err = serviceNewProbe(s, cfg.reps(5)); err != nil {
			return err
		}
		if layers["service.journal_file_append_us_p50"], err = fileJournalProbe(filepath.Join(cfg.dir, "out"), cfg.reps(100)); err != nil {
			return err
		}
	}

	if name != cfg.workload {
		return nil
	}
	rec.describe(ref)
	refFloor, err := classSum(ref.samples, minSamples)
	if err != nil {
		return err
	}
	decFloor, err := classSum(dec.samples, minSamples)
	if err != nil {
		return err
	}
	layers["engine.gathers_per_cycle"] = ref.gathers
	layers["engine.supersteps_per_cycle"] = float64(ref.supersteps)
	layers["runtime.num_gc_per_cycle"] = float64(ref.numGC) / float64(cycles)
	layers["runtime.gc_pause_ms_per_cycle"] = float64(ref.gcPauseNs) / 1e6 / float64(cycles)
	layers["runtime.cpu_ms_per_cycle"] = median(ref.cpuMs)
	layers["bench.cycle_ms_p50"] = median(ref.cycleMs)
	layers["bench.cycle_ms_p90"] = quantile(ref.cycleMs, 0.9)
	layers["bench.host_steal_pct"] = ref.stealPct
	layers["bench.samples_per_class"] = float64(cycles)
	layers["bench.tracing_overhead_pct"] = pctOver(decFloor, refFloor)
	// Concurrent service jobs overlap under their batch, so their self times
	// do not add up to the batch; closure is a statement about serial spans.
	if _, isSerial := b.(*serial); isSerial {
		if layers["bench.span_closure_pct"], err = spanClosure(ref, samples, minSamples); err != nil {
			return err
		}
	} else {
		layers["bench.span_closure_pct"] = layers["bench.tracing_overhead_pct"]
	}
	return writeSpans(filepath.Join(cfg.dir, "out", "trace-"+name+".json"), rec.Host, name, tr.spans)
}

// update rewrites testdata/expected.json from a short oracle-checked run of
// every workload on every pinned seed.
func update(dir string) error {
	exp := expectations{}
	for _, seed := range pinnedSeeds {
		perWorkload := map[string]map[string]outcome{}
		for _, name := range workloadNames {
			b, err := setUp(name, seed)
			if err != nil {
				return err
			}
			p := b.run(2, nil)
			b.verify(p, nil)
			b.close()
			if p.failed > 0 {
				return fmt.Errorf("seed %d %s: %d failed operations: %v", seed, name, p.failed, p.errs)
			}
			perWorkload[name] = b.outcomes(p)
		}
		exp[strconv.FormatUint(seed, 10)] = perWorkload
	}
	return writeExpectations(dir, exp)
}

// emit prints the record, writes it under out/, and prints as the last line
// the summary a driver reads: correct, attempted, failed, metrics.
func emit(cfg config, rec *record) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	mode := "0"
	if cfg.traced {
		mode = "1"
	}
	out := filepath.Join(cfg.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "result-"+cfg.workload+"-trace"+mode+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%-14s %-36s %16.6f %s\n", cfg.workload, name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.OpsFailed == 0, rec.Ops, rec.OpsFailed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, summary)
	return nil
}

func main() {
	var cfg config
	var traceFlag int
	var doUpdate bool
	flag.StringVar(&cfg.workload, "workload", "", "one of cold_ingest, warm_dense, warm_frontier, service_steady; empty runs all four in turn")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "every input is generated from this seed")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measuring time; converted to a fixed cycle count, at least 200 cycles")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports the per-layer metrics in place of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "two cycles per workload with every check on; timings mean nothing")
	flag.BoolVar(&doUpdate, "update", false, "rewrite testdata/expected.json and exit")
	flag.Parse()
	cfg.traced = traceFlag != 0
	// go run -C benchmark starts the program in this package's directory.
	cfg.dir = "."
	if err := run(cfg, doUpdate); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config, doUpdate bool) error {
	// Parallelism is controlled here and nowhere else: the harness touches
	// none of the packages' shard-count knobs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if doUpdate {
		return update(cfg.dir)
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	selected := []string{cfg.workload}
	if cfg.workload == "" {
		selected = workloadNames
	}
	failed := 0
	for _, name := range selected {
		if _, ok := cyclesPerSecond[name]; !ok {
			return fmt.Errorf("no workload %q; the workloads are %v", name, workloadNames)
		}
		one := cfg
		one.workload = name
		measure := endToEnd
		if cfg.traced {
			measure = traced
		}
		rec, err := measure(one, exp)
		if err != nil {
			return err
		}
		if err := emit(one, rec); err != nil {
			return err
		}
		failed += rec.OpsFailed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their checks", failed)
	}
	return nil
}
