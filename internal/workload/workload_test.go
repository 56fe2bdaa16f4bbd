package workload

import (
	"testing"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

func caseTwo(t testing.TB) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestRandomJobsDeterministic(t *testing.T) {
	a, err := RandomJobs(10, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomJobs(10, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 10 {
		t.Fatalf("jobs = %d", len(a))
	}
	for i := range a {
		if a[i].App.Name() != b[i].App.Name() || a[i].Graph.Name != b[i].Graph.Name {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	if _, err := RandomJobs(0, 512, 7); err == nil {
		t.Error("zero jobs should error")
	}
}

// TestSessionChargesEveryProfiledApp: the pool profiles the paper's four
// applications plus each extension application the jobs bring, and the
// profiling charge covers the same list. A BFS job adds BFS's proxy runs to
// the charge; a PageRank job, already among the four, adds nothing.
func TestSessionChargesEveryProfiledApp(t *testing.T) {
	cl := caseTwo(t)
	pp, err := core.NewProxyProfiler(1024, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := cacheGraph(t, 5, 64, 256)
	charge := func(app apps.App) float64 {
		rep, err := (&Session{Cluster: cl}).Run([]Job{{App: app, Graph: g, Seed: 1}}, pp)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ProfilingSeconds
	}
	paper, err := profilingCostSpec(cl, pp, apps.All())
	if err != nil {
		t.Fatal(err)
	}
	withBFS, err := profilingCostSpec(cl, pp, append(apps.All(), apps.NewBFS()))
	if err != nil {
		t.Fatal(err)
	}
	if withBFS <= paper {
		t.Fatalf("BFS's proxy runs cost nothing: %v with BFS, %v without", withBFS, paper)
	}
	if got := charge(apps.NewPageRank()); got != paper {
		t.Errorf("PageRank session charged %v, want the four apps' %v", got, paper)
	}
	if got := charge(apps.NewBFS()); got != withBFS {
		t.Errorf("BFS session charged %v, want %v with BFS profiled (%v without)", got, withBFS, paper)
	}
}

// profilingCostSpec is the charge Session.Run derives from its pool's
// profiling runs, kept as its spec: each machine group runs every
// (application, proxy) set in sequence, groups run in parallel, and the
// offline cost is the slowest group's total.
func profilingCostSpec(cl *cluster.Cluster, pp *core.ProxyProfiler, applications []apps.App) (float64, error) {
	totals := map[string]float64{}
	for _, app := range applications {
		for _, proxy := range pp.Proxies {
			secs, err := core.SoloSeconds(app, proxy, cl.Machines)
			if err != nil {
				return 0, err
			}
			for group, t := range secs {
				totals[group] += t
			}
		}
	}
	worst := 0.0
	for _, total := range totals {
		worst = max(worst, total)
	}
	return worst, nil
}

// countedApp is PageRank under a name of its own that counts the reads of
// its cost constants. Outside the app's own run, only a profiling run's
// pricing reads them (core.SoloSeconds, once per machine type).
type countedApp struct {
	*apps.PageRank
	reads *int
}

func (countedApp) Name() string { return "counted_pagerank" }

func (c countedApp) Coeffs() engine.CostCoeffs {
	*c.reads++
	return c.PageRank.Coeffs()
}

// TestSessionProfilesEachPairOnce: a proxy session takes its profiling
// charge and its pool's CCRs from the same runs, so each (application,
// proxy) pair runs one time, not once for the charge and again for the pool.
func TestSessionProfilesEachPairOnce(t *testing.T) {
	cl := caseTwo(t)
	pp, err := core.NewProxyProfiler(1024, 11)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	app := countedApp{apps.NewPageRank(), &reads}
	if _, err := core.SoloSeconds(app, pp.Proxies[0], cl.Machines); err != nil {
		t.Fatal(err)
	}
	perRun := reads
	if perRun == 0 {
		t.Fatal("a profiling run read no cost constants")
	}
	reads = 0
	job := Job{App: app, Graph: cacheGraph(t, 5, 64, 256), Seed: 1}
	if _, err := (&Session{Cluster: cl}).Run([]Job{job}, pp); err != nil {
		t.Fatal(err)
	}
	if reads != len(pp.Proxies)*perRun {
		t.Errorf("session made %v profiling runs of %s, want one per proxy (%d)",
			float64(reads)/float64(perRun), app.Name(), len(pp.Proxies))
	}
}

func TestSessionProfilingAmortizes(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(30, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	session := &Session{Cluster: cl}

	defaultRep, err := session.Run(jobs, core.Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	// Proxies profile at a fraction of the production graph size: CCRs are
	// scale-invariant (see the scale-invariance ablation), so the offline
	// cost shrinks without losing accuracy.
	pp, err := core.NewProxyProfiler(1024, 11)
	if err != nil {
		t.Fatal(err)
	}
	proxyRep, err := session.Run(jobs, pp)
	if err != nil {
		t.Fatal(err)
	}

	if defaultRep.ProfilingSeconds != 0 {
		t.Error("uniform estimator should have no profiling cost")
	}
	if proxyRep.ProfilingSeconds <= 0 {
		t.Error("proxy system must pay an offline profiling cost")
	}
	// Per job, proxy must be faster on this heterogeneous cluster.
	for i := range jobs {
		if proxyRep.JobSeconds[i] >= defaultRep.JobSeconds[i] {
			t.Fatalf("job %d: proxy %.5f not faster than default %.5f",
				i, proxyRep.JobSeconds[i], defaultRep.JobSeconds[i])
		}
	}
	// The one-time cost amortizes: the proxy system's cumulative time must
	// cross below the default's within the session.
	cross := Crossover(proxyRep, defaultRep)
	if cross == 0 {
		t.Fatalf("profiling never amortized over %d jobs (proxy total %.4f vs default %.4f)",
			len(jobs), proxyRep.Total(), defaultRep.Total())
	}
	t.Logf("profiling cost %.4fs amortized after %d jobs", proxyRep.ProfilingSeconds, cross)
	if proxyRep.Total() >= defaultRep.Total() {
		t.Error("proxy session should win in total")
	}
	if proxyRep.TotalEnergyJoules >= defaultRep.TotalEnergyJoules {
		t.Error("proxy session should save energy")
	}
}

func TestSessionValidation(t *testing.T) {
	jobs, err := RandomJobs(1, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := &Session{}
	if _, err := s.Run(jobs, core.Uniform{}); err == nil {
		t.Error("missing cluster should error")
	}
}

func TestSessionCustomPartitioner(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(3, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := &Session{Cluster: cl, Partitioner: partition.NewRandomHash()}
	rep, err := s.Run(jobs, core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.JobSeconds) != 3 || rep.Total() <= 0 {
		t.Errorf("report malformed: %+v", rep)
	}
	// Cumulative is monotone.
	prev := 0.0
	for _, c := range rep.CumulativeSeconds {
		if c <= prev {
			t.Fatal("cumulative time not increasing")
		}
		prev = c
	}
}

func TestCrossoverSemantics(t *testing.T) {
	a := &Report{CumulativeSeconds: []float64{5, 6, 7}}
	b := &Report{CumulativeSeconds: []float64{2, 4, 9}}
	if got := Crossover(a, b); got != 3 {
		t.Errorf("crossover = %d, want 3", got)
	}
	never := &Report{CumulativeSeconds: []float64{9, 10, 11}}
	if got := Crossover(never, b); got != 0 {
		t.Errorf("crossover = %d, want 0", got)
	}
}

// TestCrossoverUnequalLengths pins the common-prefix semantics: only indices
// present in both reports are compared, so a crossover that would first occur
// past the shorter report's end does not count.
func TestCrossoverUnequalLengths(t *testing.T) {
	// b shorter than a: a beats b only at index 2, which b does not reach.
	a := &Report{CumulativeSeconds: []float64{5, 6, 3}}
	b := &Report{CumulativeSeconds: []float64{2, 4}}
	if got := Crossover(a, b); got != 0 {
		t.Errorf("crossover past b's end = %d, want 0", got)
	}
	// b shorter, but the crossover lies inside the common prefix.
	early := &Report{CumulativeSeconds: []float64{5, 3, 1}}
	if got := Crossover(early, b); got != 2 {
		t.Errorf("crossover = %d, want 2", got)
	}
	// a shorter than b: b's tail is ignored symmetrically.
	short := &Report{CumulativeSeconds: []float64{3}}
	long := &Report{CumulativeSeconds: []float64{4, 0, 0}}
	if got := Crossover(short, long); got != 1 {
		t.Errorf("crossover = %d, want 1", got)
	}
	// Empty reports never cross.
	if got := Crossover(&Report{}, b); got != 0 {
		t.Errorf("empty report crossed at %d", got)
	}
}

// TestSessionFailStop pins per-job failure handling: a failing job aborts
// the session with an error, and so does a job with no app or no graph,
// which RunJob rejects before touching either.
func TestSessionFailStop(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(4, 512, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Extension apps now join the pool, so a missing pool entry no longer
	// fails a job; an out-of-range BFS root still does, rejected by the typed
	// source validation at run time.
	bad := jobs[1]
	badBFS := apps.NewBFS()
	badBFS.Source = 1 << 30
	bad.App = badBFS
	noApp, noGraph := jobs[1], jobs[1]
	noApp.App, noGraph.Graph = nil, nil

	s := &Session{Cluster: cl}
	for name, job := range map[string]Job{"bad BFS root": bad, "no app": noApp, "no graph": noGraph} {
		withBad := append(append([]Job{}, jobs[:2]...), job)
		withBad = append(withBad, jobs[2:]...)
		if _, err := s.Run(withBad, core.NewThreadCount()); err == nil {
			t.Errorf("%s: fail-stop session should abort on the bad job", name)
		}
	}
}

func TestSessionTraceIdenticalResults(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(4, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Session{Cluster: cl}
	plainRep, err := plain.Run(jobs, core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	traced := &Session{Cluster: cl, Trace: rec}
	tracedRep, err := traced.Run(jobs, core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	// Attaching a collector must not perturb the accounting of any job.
	for i := range jobs {
		if plainRep.JobSeconds[i] != tracedRep.JobSeconds[i] {
			t.Fatalf("job %d: traced %.9f != plain %.9f", i, tracedRep.JobSeconds[i], plainRep.JobSeconds[i])
		}
	}
	if len(rec.Events) == 0 {
		t.Fatal("session with a collector recorded no events")
	}
	// Every traced job contributes at least its superstep begins.
	begins := 0
	for _, e := range rec.Events {
		if e.Kind == trace.KindStepBegin {
			begins++
		}
	}
	if begins == 0 {
		t.Fatal("no superstep events across the session")
	}
}

// TestSessionBatchJobs runs the batched-traversal family (ClusterBFS, the
// landmark oracle, k-seed reachability) through a cached session: extension
// jobs dispatch through the job-unioned CCR pool, repeated batches hit the
// placement cache, and each batch charges the session clock exactly once.
func TestSessionBatchJobs(t *testing.T) {
	cl := caseTwo(t)
	base, err := RandomJobs(1, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := base[0].Graph
	jobs := []Job{
		{App: apps.NewClusterBFS(), Graph: g, Seed: 1},
		{App: apps.NewLandmarkOracle(), Graph: g, Seed: 1},
		{App: apps.NewKSeedReach(), Graph: g, Seed: 1},
		{App: apps.NewClusterBFS(), Graph: g, Seed: 1},
	}
	s := &Session{Cluster: cl, Cache: NewPlacementCache(), ChargeIngress: true}
	rep, err := s.Run(jobs, core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.JobSeconds) != len(jobs) {
		t.Fatalf("report covers %d jobs, want %d", len(rep.JobSeconds), len(jobs))
	}
	for i, sec := range rep.JobSeconds {
		if sec <= 0 {
			t.Errorf("job %d (%s) charged %v seconds", i, jobs[i].App.Name(), sec)
		}
	}
	if rep.CacheHits+rep.CacheMisses != len(jobs) {
		t.Fatalf("cache outcomes %d+%d do not cover %d jobs", rep.CacheHits, rep.CacheMisses, len(jobs))
	}
	if rep.CacheHits < 1 {
		t.Error("repeated batch on the same graph never hit the placement cache")
	}
	if rep.IngressSeconds[0] <= 0 {
		t.Error("cold batch charged no ingress")
	}
	if rep.IngressSeconds[len(jobs)-1] != 0 {
		t.Error("cached batch charged ingress")
	}
}

// TestRunJobPassesOptionsThrough is the regression test for a dropped option:
// RunJob used to take the options path only when a collector, fault schedule
// or rebalancer was set, so a job carrying nothing but a warm-start frontier
// silently ran cold. A non-nil empty InitialActive is a valid seed — the run
// terminates after one idle superstep.
func TestRunJobPassesOptionsThrough(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(1, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{App: apps.NewBFS(), Graph: jobs[0].Graph, Seed: 1}
	pool, err := core.BuildPool(cl, []apps.App{job.App}, core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	s := &Session{Cluster: cl}
	cold, err := s.RunJob(pool, job, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Exec.Supersteps <= 1 {
		t.Fatalf("cold BFS ran %d supersteps; the fixture cannot tell warm from cold", cold.Exec.Supersteps)
	}
	warm, err := s.RunJob(pool, job, engine.Options{InitialActive: []graph.VertexID{}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Exec.Supersteps != 1 {
		t.Fatalf("BFS seeded with an empty frontier ran %d supersteps, want 1: RunJob dropped InitialActive", warm.Exec.Supersteps)
	}
}

// hitFixture returns a cached session, a job whose placement the cache
// already holds, and that placement: RunJob of the job is a cache hit, and
// apps.Run on the placement is the same run without the session around it.
func hitFixture(tb testing.TB) (*Session, *core.Pool, Job, *engine.Placement) {
	tb.Helper()
	cl := caseTwo(tb)
	// A small graph keeps the run short enough that RunJob's own time shows.
	job := Job{App: apps.NewBFS(), Graph: cacheGraph(tb, 5, 64, 256), Seed: 1}
	pool, err := core.BuildPool(cl, []apps.App{job.App}, core.NewThreadCount())
	if err != nil {
		tb.Fatal(err)
	}
	s := &Session{Cluster: cl, Partitioner: partition.NewHybrid(), Cache: NewPlacementCache()}
	if jr, err := s.RunJob(pool, job, engine.Options{}); err != nil || jr.CacheHit {
		tb.Fatalf("first run: hit %v, err %v; want a miss", jr.CacheHit, err)
	}
	shares, err := pool.SharesFor(job.App.Name(), cl)
	if err != nil {
		tb.Fatal(err)
	}
	pl, hit, err := s.Cache.Place(s.Partitioner, job.Graph, shares, job.Seed)
	if err != nil || !hit {
		tb.Fatalf("cached placement: hit %v, err %v", hit, err)
	}
	return s, pool, job, pl
}

// TestRunJobAllocs holds a cache-hit RunJob to the allocations of the bare
// run it wraps: shares, partitioner and result all come without one, also
// when the session leaves Partitioner nil.
func TestRunJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	fixture, pool, job, pl := hitFixture(t)
	bare := testing.AllocsPerRun(10, func() {
		if _, err := apps.Run(job.App, pl, fixture.Cluster, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// The default Hybrid keys the cache like the fixture's, so both hit.
	for _, part := range []partition.Partitioner{fixture.Partitioner, nil} {
		s := &Session{Cluster: fixture.Cluster, Partitioner: part, Cache: fixture.Cache}
		served := testing.AllocsPerRun(10, func() {
			if jr, err := s.RunJob(pool, job, engine.Options{}); err != nil || !jr.CacheHit {
				t.Fatalf("partitioner %v: hit %v, err %v", part, jr.CacheHit, err)
			}
		})
		if served != bare {
			t.Errorf("partitioner %v: cache-hit RunJob allocates %.0f, apps.Run %.0f; want equal", part, served, bare)
		}
	}
}

// BenchmarkRunJobHit times a cache-hit RunJob next to a bare apps.Run of
// the same job on the same placement, so the difference is RunJob's own
// time (shares and cache lookup); their allocations are equal.
func BenchmarkRunJobHit(b *testing.B) {
	s, pool, job, pl := hitFixture(b)
	b.Run("RunJob", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.RunJob(pool, job, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apps.Run", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := apps.Run(job.App, pl, s.Cluster, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
