package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/workload"
)

// unit is one class of a serial workload: an (application, graph) job or a
// graph's evolve step. A cycle runs every unit once, in order.
type unit struct {
	class string
	// layer names the span around the application run.
	layer string
	// app is nil for an evolve step.
	app apps.App
	gi  int
}

// serial is one of the three single-client workloads, set up and warm.
type serial struct {
	name string
	// cold makes every cycle start with an empty placement cache and
	// forgotten graph fingerprints, and adds an evolve step per graph.
	cold bool

	cl      *cluster.Cluster
	pool    *core.Pool
	part    partition.Partitioner
	amender partition.Amender
	sess    *workload.Session
	graphs  []*graph.Graph
	seeds   []uint64
	units   []unit

	// cold_ingest only: the evolution step of every graph, the component
	// labels of its base version that the resumed run starts from, and the
	// evolved graph's undirected view for the oracle.
	deltas []*graph.Delta
	priors [][]uint32

	// Hand-off inside a traced cold cycle: the placement the decomposed cold
	// job built, which the graph's evolve step amends.
	basePl []*engine.Placement
	// Cache outcomes: retired sums the caches cold cycles have thrown away,
	// baseline is the live cache's reading when set-up ended.
	retired, baseline workload.CacheStats

	// Set-up spans, for the traced run.
	generateMs, buildPoolMs float64
}

const warmupCycles = 3

// newSerial builds a serial workload from the seed and runs its warm-up
// cycles. Everything here is set-up time.
func newSerial(name string, seed uint64) (*serial, error) {
	s := &serial{name: name, cold: name == coldIngest}
	var err error
	if s.cl, err = newCluster(); err != nil {
		return nil, err
	}
	start := time.Now()
	if s.graphs, err = generateGraphs(name); err != nil {
		return nil, err
	}
	s.generateMs = msSince(start)
	s.seeds = ingressSeeds(seed, len(s.graphs))
	if s.part, err = partitionerNamed("hybrid"); err != nil {
		return nil, err
	}
	s.amender = s.part.(partition.Amender)

	var poolApps []apps.App
	for gi, g := range s.graphs {
		top := hubs(g, apps.MaxBatchSources)
		short := strings.SplitN(g.Name, "/", 2)[0]
		add := func(layer string, app apps.App) {
			s.units = append(s.units, unit{class: app.Name() + "/" + short, layer: layer, app: app, gi: gi})
			poolApps = append(poolApps, app)
		}
		sssp := apps.NewSSSP()
		sssp.Source = top[0]
		switch name {
		case coldIngest:
			add("apps.sssp_run", sssp)
			s.units = append(s.units, unit{class: "evolve/" + short, layer: "apps.cc_resume_run", gi: gi})
		case warmDense:
			// Tolerance 0 fixes the run at MaxIters rounds, the usual
			// PageRank benchmark, whichever round each graph would converge in.
			pr := apps.NewPageRank()
			pr.Tolerance = 0
			add("apps.pagerank_run", pr)
			add("apps.cc_run", apps.NewConnectedComponents())
		case warmFrontier:
			bfs := apps.NewBFS()
			bfs.Source = top[0]
			add("apps.sssp_run", sssp)
			add("apps.bfs_run", bfs)
			add("apps.kcore_run", apps.NewKCore())
			if gi == 0 || gi == 2 { // amazon and social_network
				cb := apps.NewClusterBFS()
				cb.Sources = top
				add("apps.cluster_bfs_run", cb)
			}
		default:
			return nil, fmt.Errorf("no serial workload %q", name)
		}
	}
	cc := apps.NewConnectedComponents()
	if s.cold {
		poolApps = append(poolApps, cc)
	}
	// Thread-count shares do not depend on the application, so an evolved
	// placement is keyed like its base and is amended, not rebuilt.
	start = time.Now()
	if s.pool, err = core.BuildPool(s.cl, poolApps, core.NewThreadCount()); err != nil {
		return nil, err
	}
	s.buildPoolMs = msSince(start)
	s.sess = &workload.Session{
		Cluster:       s.cl,
		Partitioner:   s.part,
		Cache:         workload.NewPlacementCache(),
		ChargeIngress: true,
	}

	if s.cold {
		if s.deltas, err = generateDeltas(seed, s.graphs); err != nil {
			return nil, err
		}
		s.priors = make([][]uint32, len(s.graphs))
		s.basePl = make([]*engine.Placement, len(s.graphs))
		for gi, g := range s.graphs {
			jr, err := s.sess.RunJob(s.pool, workload.Job{App: cc, Graph: g, Seed: s.seeds[gi]}, engine.Options{})
			if err != nil {
				return nil, err
			}
			s.priors[gi] = jr.Exec.Output.(apps.Components).Labels
		}
	}
	if !s.cold {
		// Pre-warm: every timed job of a warm workload must be a cache hit.
		for i := range s.units {
			u := &s.units[i]
			shares, err := s.shares(u.app.Name())
			if err != nil {
				return nil, err
			}
			if _, _, err := s.sess.Cache.Place(s.part, s.graphs[u.gi], shares, s.seeds[u.gi]); err != nil {
				return nil, err
			}
		}
	}
	for c := 0; c < warmupCycles; c++ {
		s.beforeCycle()
		for i := range s.units {
			if _, _, err := s.runUnit(&s.units[i], -1, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	s.retired = workload.CacheStats{}
	s.baseline = s.sess.Cache.Stats()
	return s, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// beforeCycle makes a cold cycle cold: a fresh cache and no memoized
// fingerprints. Warm workloads keep their cache.
func (s *serial) beforeCycle() {
	if !s.cold {
		return
	}
	st := s.sess.Cache.Stats()
	s.retired.Hits += st.Hits - s.baseline.Hits
	s.retired.Misses += st.Misses - s.baseline.Misses
	s.retired.Amends += st.Amends - s.baseline.Amends
	s.baseline = workload.CacheStats{}
	s.sess.Cache = workload.NewPlacementCache()
	for _, g := range s.graphs {
		workload.ReleaseGraphFingerprint(g)
	}
}

// cacheCounts returns the cache outcomes since set-up ended.
func (s *serial) cacheCounts() workload.CacheStats {
	st := s.sess.Cache.Stats()
	return workload.CacheStats{
		Hits:   s.retired.Hits + st.Hits - s.baseline.Hits,
		Misses: s.retired.Misses + st.Misses - s.baseline.Misses,
		Amends: s.retired.Amends + st.Amends - s.baseline.Amends,
	}
}

// shares derives the application's machine shares the way RunJob does.
func (s *serial) shares(app string) ([]float64, error) {
	ccr, ok := s.pool.Get(app)
	if !ok {
		return nil, fmt.Errorf("no CCR for %q", app)
	}
	return ccr.SharesFor(s.cl)
}

// runUnit executes one unit. With a nil tracer it takes the path a user
// takes: Session.RunJob for a job; Delta.Apply, PlaceEvolved and a resumed
// run for an evolve step. With a tracer it makes the public calls that path
// is made of, each inside a span. It returns the engine result and the
// simulated ingress seconds charged.
func (s *serial) runUnit(u *unit, cycle int, tr *tracer) (*engine.Result, float64, error) {
	switch {
	case u.app == nil && tr == nil:
		return s.evolve(u)
	case u.app == nil:
		return s.evolveTraced(u, cycle, tr)
	case tr == nil:
		job := workload.Job{App: u.app, Graph: s.graphs[u.gi], Seed: s.seeds[u.gi]}
		jr, err := s.sess.RunJob(s.pool, job, engine.Options{})
		if err != nil {
			return nil, 0, err
		}
		if jr.CacheHit == s.cold {
			return nil, 0, fmt.Errorf("%s: cache hit is %v in a workload that is cold=%v", u.class, jr.CacheHit, s.cold)
		}
		return jr.Exec, jr.IngressSeconds, nil
	default:
		return s.jobTraced(u, cycle, tr)
	}
}

func (s *serial) evolve(u *unit) (*engine.Result, float64, error) {
	base, d := s.graphs[u.gi], s.deltas[u.gi]
	evolved, err := d.Apply(base)
	if err != nil {
		return nil, 0, err
	}
	cc := apps.NewConnectedComponents()
	shares, err := s.shares(cc.Name())
	if err != nil {
		return nil, 0, err
	}
	pl, how, err := s.sess.Cache.PlaceEvolved(s.part, base, d, evolved, shares, s.seeds[u.gi])
	if err != nil {
		return nil, 0, err
	}
	if how != workload.PlaceAmend {
		return nil, 0, fmt.Errorf("%s: evolved placement was a %v, want an amend", u.class, how)
	}
	res, err := cc.Resume(s.priors[u.gi], d, evolved).Run(pl, s.cl)
	return res, 0, err
}

func (s *serial) evolveTraced(u *unit, cycle int, tr *tracer) (*engine.Result, float64, error) {
	base, d := s.graphs[u.gi], s.deltas[u.gi]
	root := tr.begin("evolve", u.class, cycle, -1)
	defer tr.end(root)

	sp := tr.begin("graph.delta_apply", u.class, cycle, root)
	evolved, err := d.Apply(base)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	cc := apps.NewConnectedComponents()
	shares, err := s.shares(cc.Name())
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("workload.evolve_fingerprint", u.class, cycle, root)
	_, err = workload.EvolveFingerprint(base, d, evolved)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	basePl := s.basePl[u.gi]
	sp = tr.begin("partition.hybrid_amend", u.class, cycle, root)
	owner, err := s.amender.Amend(base, basePl.EdgeOwner, d, evolved, shares, s.seeds[u.gi])
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("engine.new_placement", u.class, cycle, root)
	pl, err := engine.NewPlacement(evolved, owner, len(shares))
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin(u.layer, u.class, cycle, root)
	res, err := cc.Resume(s.priors[u.gi], d, evolved).Run(pl, s.cl)
	tr.end(sp)
	return res, 0, err
}

func (s *serial) jobTraced(u *unit, cycle int, tr *tracer) (*engine.Result, float64, error) {
	g, seed := s.graphs[u.gi], s.seeds[u.gi]
	// The root's self time is what RunJob adds to its parts.
	root := tr.begin("workload.runjob_self", u.class, cycle, -1)
	defer tr.end(root)

	shares, err := s.shares(u.app.Name())
	if err != nil {
		return nil, 0, err
	}
	var pl *engine.Placement
	if s.cold {
		sp := tr.begin("workload.fingerprint_cold", u.class, cycle, root)
		workload.GraphFingerprint(g)
		tr.end(sp)
		sp = tr.begin("partition.hybrid_ingress", u.class, cycle, root)
		owner, err := s.part.Partition(g, shares, seed)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.begin("engine.new_placement", u.class, cycle, root)
		pl, err = engine.NewPlacement(g, owner, len(shares))
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		s.basePl[u.gi] = pl
	} else {
		sp := tr.begin("workload.cache_place_hit", u.class, cycle, root)
		var hit bool
		pl, hit, err = s.sess.Cache.Place(s.part, g, shares, seed)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		if !hit {
			return nil, 0, fmt.Errorf("%s: placement missed a warm cache", u.class)
		}
	}
	sp := tr.begin(u.layer, u.class, cycle, root)
	res, err := u.app.Run(pl, s.cl)
	tr.end(sp)
	return res, 0, err
}

// pass is what one timed region over a workload measured.
type pass struct {
	classes []string
	cycles  int
	// samples[i] holds class i's wall time in every cycle, in milliseconds.
	samples [][]float64
	// cycleMs and cpuMs are each whole cycle's wall and process-CPU time.
	cycleMs, cpuMs []float64
	// first holds the outcomes of the first cycle.
	first []outcome

	ops, failed int
	errs        []string

	// Per-cycle sums over the first cycle: the paper's clock and the engine's
	// exact work counts.
	simSeconds, gathers float64
	supersteps          int

	allocBytes, mallocs uint64
	numGC               uint32
	gcPauseNs           uint64
	liveHeapBytes       uint64
	stealPct            float64
}

func newPass(classes []string, cycles int) *pass {
	p := &pass{
		classes: classes,
		cycles:  cycles,
		samples: make([][]float64, len(classes)),
		cycleMs: make([]float64, 0, cycles),
		cpuMs:   make([]float64, 0, cycles),
		first:   make([]outcome, len(classes)),
	}
	for i := range p.samples {
		p.samples[i] = make([]float64, 0, cycles)
	}
	return p
}

// endCycle records a whole cycle's wall and CPU time.
func (p *pass) endCycle(start time.Time, cpuStart time.Duration) {
	p.cycleMs = append(p.cycleMs, msSince(start))
	p.cpuMs = append(p.cpuMs, float64(processCPU()-cpuStart)/1e6)
}

// checkPinned compares a class's outcome with the seed's pinned expectation,
// when the seed has any.
func (p *pass) checkPinned(class string, got outcome, pinned map[string]outcome) {
	if pinned == nil {
		return
	}
	want, ok := pinned[class]
	if !ok {
		p.fail(fmt.Errorf("%s: class missing from testdata/expected.json; run with -update", class))
	} else if err := got.matchesPinned(want); err != nil {
		p.fail(fmt.Errorf("%s: %w", class, err))
	}
}

func (p *pass) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// memMark snapshots the allocator counters a pass reports deltas of.
type memMark struct {
	ms    runtime.MemStats
	steal stealMeter
}

func markMem() *memMark {
	m := &memMark{}
	runtime.GC()
	runtime.ReadMemStats(&m.ms)
	m.steal = startSteal()
	return m
}

// close fills the pass's allocator deltas, then forces a collection and reads
// the live heap while keep is still referenced.
func (m *memMark) close(p *pass, keep any) {
	p.stealPct = m.steal.pct()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - m.ms.TotalAlloc
	p.mallocs = after.Mallocs - m.ms.Mallocs
	p.numGC = after.NumGC - m.ms.NumGC
	p.gcPauseNs = after.PauseTotalNs - m.ms.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.liveHeapBytes = after.HeapAlloc
	runtime.KeepAlive(keep)
}

// run times cycles cycles of the workload. With a tracer every unit takes the
// decomposed path and every cycle's outcome is compared with the first;
// without one only the first and last cycles are digested.
func (s *serial) run(cycles int, tr *tracer) *pass {
	classes := make([]string, len(s.units))
	for i, u := range s.units {
		classes[i] = u.class
	}
	p := newPass(classes, cycles)

	mark := markMem()
	for c := 0; c < cycles; c++ {
		digest := tr != nil || c == 0 || c == cycles-1
		cycleStart, cpuStart := time.Now(), processCPU()
		s.beforeCycle()
		for i := range s.units {
			u := &s.units[i]
			start := time.Now()
			res, ingress, err := s.runUnit(u, c, tr)
			p.samples[i] = append(p.samples[i], msSince(start))
			p.ops++
			if err != nil {
				p.fail(err)
				continue
			}
			if c == 0 {
				p.simSeconds += res.SimSeconds + ingress
				p.gathers += res.Gathers
				p.supersteps += res.Supersteps
			}
			if !digest {
				continue
			}
			o, err := outcomeOf(res, c == 0)
			if err != nil {
				p.fail(err)
				continue
			}
			if c == 0 {
				p.first[i] = o
			} else if err := sameRun(p.first[i], o); err != nil {
				p.fail(fmt.Errorf("%s cycle %d: %w", u.class, c, err))
			}
		}
		p.endCycle(cycleStart, cpuStart)
	}
	mark.close(p, s)
	return p
}

// verify checks the first cycle's raw outputs against the oracles, and against
// the pinned expectations when the seed has them. The last cycle was already
// compared with the first.
func (s *serial) verify(p *pass, pinned map[string]outcome) {
	views := make(map[*graph.Graph]*adjacency)
	view := func(g *graph.Graph) *adjacency {
		if views[g] == nil {
			views[g] = undirected(g)
		}
		return views[g]
	}
	for i, u := range s.units {
		o := p.first[i]
		if o.out == nil {
			continue // the unit already failed
		}
		g, app := s.graphs[u.gi], u.app
		if app == nil {
			evolved, err := s.deltas[u.gi].Apply(g)
			if err != nil {
				p.fail(err)
				continue
			}
			g, app = evolved, apps.NewConnectedComponents()
		}
		if err := verify(app, g, view(g), o.out); err != nil {
			p.fail(err)
		}
		p.checkPinned(u.class, o, pinned)
		p.first[i].out = nil
	}
}
