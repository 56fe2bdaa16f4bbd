package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"proxygraph/internal/service"
	"proxygraph/internal/trace"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits are the six gated metrics every workload reports, all lower
// is better.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cycle_floor_ms", "ms"},
	{"alloc_mb_per_cycle", "MB"},
	{"allocs_per_cycle", "count"},
	{"live_heap_mb", "MB"},
	{"sim_s_per_cycle", "s"},
}

// perLayerUnits are the traced run's metrics. A time is the floor of a span's
// self time, summed over the classes of the layer's home workload (named in
// the comment); the traced run passes over all four workloads so that every
// layer is measured whichever workload was selected. Rows marked "selected"
// describe the workload the command line named.
var perLayerUnits = []struct{ name, unit string }{
	// set-up of the selected workload
	{"gen.generate_ms", "ms"},
	{"core.build_pool_ms", "ms"},
	{"service.new_ms", "ms"},
	// cold_ingest: a cold job's ingest, then the evolve step
	{"workload.fingerprint_cold_ms", "ms"},
	{"partition.hybrid_ingress_ms", "ms"},
	{"engine.new_placement_ms", "ms"},
	{"graph.delta_apply_ms", "ms"},
	{"workload.evolve_fingerprint_ms", "ms"},
	{"partition.hybrid_amend_ms", "ms"},
	{"apps.cc_resume_run_ms", "ms"},
	{"workload.cache_amends", "count"},
	{"workload.cache_misses", "count"},
	// off the end-to-end path: the partitioners a session does not default to
	{"partition.random_ingress_ms", "ms"},
	{"partition.oblivious_ingress_ms", "ms"},
	{"partition.ginger_ingress_ms", "ms"},
	{"partition.hdrf_ingress_ms", "ms"},
	// warm_dense
	{"workload.cache_place_hit_us", "us"},
	{"workload.cache_hits", "count"},
	{"workload.runjob_self_us", "us"},
	{"apps.pagerank_run_ms", "ms"},
	{"apps.cc_run_ms", "ms"},
	{"engine.ns_per_gather", "ns"},
	// warm_frontier
	{"apps.sssp_run_ms", "ms"},
	{"apps.bfs_run_ms", "ms"},
	{"apps.kcore_run_ms", "ms"},
	{"apps.cluster_bfs_run_ms", "ms"},
	{"engine.us_per_superstep", "us"},
	{"trace.recorder_overhead_pct", "%"},
	// service_steady
	{"service.submit_us_p50", "us"},
	{"service.submit_to_done_ms_p50", "ms"},
	{"service.submit_to_done_ms_p90", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.self_ms", "ms"},
	{"service.journal_records_per_job", "count"},
	{"service.journal_bytes_per_job", "bytes"},
	{"service.recover_ms_per_1k_jobs", "ms"},
	{"service.journal_file_append_us_p50", "us"},
	{"service.rejected", "count"},
	{"service.shed", "count"},
	// selected workload: exact engine work, the runtime's share, and the
	// conventional statistics that are too noisy here to gate
	{"engine.gathers_per_cycle", "count"},
	{"engine.supersteps_per_cycle", "count"},
	{"runtime.num_gc_per_cycle", "count"},
	{"runtime.gc_pause_ms_per_cycle", "ms"},
	{"runtime.cpu_ms_per_cycle", "ms"},
	{"bench.cycle_ms_p50", "ms"},
	{"bench.cycle_ms_p90", "ms"},
	{"bench.host_steal_pct", "%"},
	{"bench.samples_per_class", "count"},
	{"bench.tracing_overhead_pct", "%"},
	{"bench.span_closure_pct", "%"},
}

// layerFloor sums, over every class a span name occurs in, the floor of its
// per-cycle self time, in milliseconds.
func layerFloor(samples map[spanKey][]float64, name string, minSamples int) (float64, error) {
	sum, found := 0.0, false
	for key, s := range samples {
		if key.name != name {
			continue
		}
		f, err := floorOf(s, minSamples)
		if err != nil {
			return 0, fmt.Errorf("%s in %s: %w", name, key.class, err)
		}
		sum += f
		found = true
	}
	if !found {
		return 0, fmt.Errorf("no span named %s", name)
	}
	return sum, nil
}

// spanClosure reports how far the layer floors are from adding up: the sum,
// over every class and span name, of the floor of the span's self time, as a
// signed percentage above or below the cycle floor of the RunJob pass. Within
// one cycle the self times of a unit's spans add up to the unit exactly; their
// floors are each taken over all cycles and need not coincide in one, so the
// sum of floors falls short of the floor of the sum, by more the noisier the
// host and the more spans a class has.
func spanClosure(ref *pass, samples map[spanKey][]float64, minSamples int) (float64, error) {
	layers := 0.0
	for _, s := range samples {
		f, err := floorOf(s, minSamples)
		if err != nil {
			return 0, err
		}
		layers += f
	}
	cycle, err := classSum(ref.samples, minSamples)
	if err != nil {
		return 0, err
	}
	return pctOver(layers, cycle), nil
}

// recorderOverhead runs a serial workload through RunJob with and without a
// trace.Recorder on the session, alternating cycle by cycle so both sides see
// the same host, and returns how much the recorder adds to the cycle floor.
func recorderOverhead(s *serial, cycles, minSamples int) (float64, error) {
	rec := trace.NewRecorder()
	sides := [2][][]float64{make([][]float64, len(s.units)), make([][]float64, len(s.units))}
	defer func() { s.sess.Trace = nil }()
	for c := 0; c < 2*cycles; c++ {
		side := c % 2
		s.sess.Trace = nil
		if side == 1 {
			rec.Reset()
			s.sess.Trace = rec
		}
		s.beforeCycle()
		for i := range s.units {
			start := time.Now()
			if _, _, err := s.runUnit(&s.units[i], c, nil); err != nil {
				return 0, err
			}
			sides[side][i] = append(sides[side][i], msSince(start))
		}
	}
	plain, err := classSum(sides[0], minSamples)
	if err != nil {
		return 0, err
	}
	recorded, err := classSum(sides[1], minSamples)
	if err != nil {
		return 0, err
	}
	return pctOver(recorded, plain), nil
}

// ingressProbe times one partitioner's full ingress of every graph of a
// serial workload: the sum over graphs of the fastest of reps runs.
func ingressProbe(s *serial, name string, reps int) (float64, error) {
	part, err := partitionerNamed(name)
	if err != nil {
		return 0, err
	}
	shares, err := s.shares(s.units[0].app.Name())
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for gi, g := range s.graphs {
		best := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := part.Partition(g, shares, s.seeds[gi]); err != nil {
				return 0, err
			}
			if ms := msSince(start); r == 0 || ms < best {
				best = ms
			}
		}
		sum += best
	}
	return sum, nil
}

// serviceNewProbe times starting (and stopping) a service instance: the
// fastest of reps.
func serviceNewProbe(v *svc, reps int) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		s, err := service.New(service.Config{Cluster: v.cl, Cache: v.cache, Workers: svcWorkers, Journal: service.NewMemJournal()})
		ms := msSince(start)
		if err != nil {
			return 0, err
		}
		s.Close()
		if r == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// fileJournalProbe appends records to a file journal, which syncs each one,
// and returns the median append in microseconds. The number belongs to the
// host's disk as much as to the journal; it is never gated.
func fileJournalProbe(dir string, appends int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "probe.journal")
	defer os.Remove(path)
	j, _, err := service.OpenFileJournal(path)
	if err != nil {
		return 0, err
	}
	samples := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		start := time.Now()
		_, err := j.Append(service.Record{Kind: service.RecordSubmit, Tenant: tenant, App: "sssp", Graph: "amazon", Seed: uint64(i)})
		if err != nil {
			j.Close()
			return 0, err
		}
		samples = append(samples, float64(time.Since(start))/1e3)
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return median(samples), nil
}

// serviceLayers turns a traced service pass into the service's layer metrics.
func serviceLayers(l *svcLayers, minSamples int, out map[string]float64) error {
	if l == nil || len(l.submitToDoneMs) == 0 || l.jobs == 0 {
		return fmt.Errorf("the traced service pass recorded no jobs")
	}
	out["service.submit_us_p50"] = median(l.submitUs)
	out["service.submit_to_done_ms_p50"] = median(l.submitToDoneMs)
	out["service.submit_to_done_ms_p90"] = quantile(l.submitToDoneMs, 0.9)
	out["service.queue_wait_ms_p50"] = median(l.queueWaitMs)
	classes := make([]string, 0, len(l.directByClass))
	for class := range l.directByClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	self := 0.0
	for _, class := range classes {
		// A floor is a minimum, which more samples can only lower: compare
		// equal counts.
		direct, through := l.directByClass[class], l.submitToDoneByClass[class]
		n := min(len(direct), len(through))
		directFloor, err := floorOf(direct[:n], minSamples)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", class, err)
		}
		throughFloor, err := floorOf(through[:n], minSamples)
		if err != nil {
			return fmt.Errorf("submit to done of %s: %w", class, err)
		}
		self += throughFloor - directFloor
	}
	out["service.self_ms"] = self / float64(len(classes))
	out["service.journal_records_per_job"] = float64(l.journalRecords) / float64(l.jobs)
	out["service.journal_bytes_per_job"] = float64(l.journalBytes) / float64(l.jobs)
	if len(l.recoverMsPer1k) == 0 {
		return fmt.Errorf("no journal was recovered")
	}
	out["service.recover_ms_per_1k_jobs"] = median(l.recoverMsPer1k)
	out["service.rejected"] = float64(l.rejected)
	out["service.shed"] = float64(l.shed)
	return nil
}
