package workload

import (
	"sync"
	"testing"

	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

func cacheGraph(t testing.TB, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "cache-test", Vertices: int64(n), Edges: int64(m), Kind: gen.KindPowerLaw,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlacementCacheHitsAndKeying(t *testing.T) {
	c := NewPlacementCache()
	g := cacheGraph(t, 1, 300, 2400)
	part := partition.NewHybrid()
	shares := partition.UniformShares(2)

	a, hit, err := c.Place(part, g, shares, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported a hit")
	}
	b, hit, err := c.Place(part, g, shares, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || b != a {
		t.Fatal("repeat request should return the cached placement")
	}

	// Every dimension of the key must miss independently.
	if _, hit, _ := c.Place(part, g, shares, 8); hit {
		t.Error("different seed hit the cache")
	}
	if _, hit, _ := c.Place(partition.NewRandomHash(), g, shares, 7); hit {
		t.Error("different partitioner hit the cache")
	}
	if _, hit, _ := c.Place(part, g, []float64{0.25, 0.75}, 7); hit {
		t.Error("different shares hit the cache")
	}
	if _, hit, _ := c.Place(part, cacheGraph(t, 2, 300, 2400), shares, 7); hit {
		t.Error("different graph hit the cache")
	}
	// A tuned instance of the same algorithm is a different key.
	tuned := partition.NewHybrid()
	tuned.Threshold += 17
	if _, hit, _ := c.Place(tuned, g, shares, 7); hit {
		t.Error("re-tuned partitioner hit the cache")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 6 {
		t.Errorf("stats = %+v, want 1 hit / 6 misses", st)
	}
	if st.IngressWallSeconds <= 0 {
		t.Error("misses recorded no ingress wall time")
	}
	if c.Stats().Entries != 6 {
		t.Errorf("cache holds %d entries, want 6", c.Stats().Entries)
	}
}

func TestPlacementCacheErrorsNotCached(t *testing.T) {
	c := NewPlacementCache()
	g := cacheGraph(t, 3, 100, 600)
	bad := []float64{0.2, 0.2} // non-normalized: partitioners reject it
	if _, _, err := c.Place(partition.NewHybrid(), g, bad, 1); err == nil {
		t.Fatal("expected share-validation error")
	}
	if c.Stats().Entries != 0 {
		t.Fatal("failed ingress left an entry in the cache")
	}
	if _, hit, err := c.Place(partition.NewHybrid(), g, partition.UniformShares(2), 1); err != nil || hit {
		t.Fatal("retry after failure should run ingress fresh")
	}
}

func TestPlacementCacheSingleFlight(t *testing.T) {
	c := NewPlacementCache()
	g := cacheGraph(t, 4, 2000, 30000)
	part := partition.NewGinger()
	shares := partition.UniformShares(4)

	const callers = 8
	var wg sync.WaitGroup
	wg.Add(callers)
	results := make([]interface{}, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			pl, _, err := c.Place(part, g, shares, 5)
			if err != nil {
				results[i] = err
				return
			}
			results[i] = pl
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different placement object: single-flight failed", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d concurrent callers ran ingress %d times, want exactly 1", callers, st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
}

// TestPlacementCacheBounds pins the LRU policy: the cache never holds more
// completed entries (or footprint-bound bytes) than configured, evicts in
// least-recently-used order, and counts every eviction.
func TestPlacementCacheBounds(t *testing.T) {
	c := NewBoundedPlacementCache(3, 0)
	part := partition.NewHybrid()
	shares := partition.UniformShares(2)
	graphs := make([]*graph.Graph, 5)
	for i := range graphs {
		graphs[i] = cacheGraph(t, uint64(10+i), 200, 1200)
	}
	for _, g := range graphs[:3] {
		if _, _, err := c.Place(part, g, shares, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Touch graph 0 so graph 1 is now the least recently used.
	if _, hit, _ := c.Place(part, graphs[0], shares, 1); !hit {
		t.Fatal("graph 0 should still be cached")
	}
	if _, _, err := c.Place(part, graphs[3], shares, 1); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Entries != 3 {
		t.Fatalf("cache holds %d entries after eviction, want 3", c.Stats().Entries)
	}
	if _, hit, _ := c.Place(part, graphs[1], shares, 1); hit {
		t.Error("least-recently-used entry (graph 1) survived eviction")
	}
	if _, hit, _ := c.Place(part, graphs[0], shares, 1); !hit {
		t.Error("recently-touched entry (graph 0) was evicted before the LRU one")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("bounded cache over capacity recorded no evictions")
	}
	if st.Entries > 3 {
		t.Errorf("entry bound violated: %d > 3", st.Entries)
	}

	// Byte bound: a budget smaller than one placement means nothing is ever
	// retained — every request misses, the caller still gets a placement, and
	// the resident byte count stays at zero.
	tiny := NewBoundedPlacementCache(0, 1)
	pl, _, err := tiny.Place(part, graphs[0], shares, 1)
	if err != nil || pl == nil {
		t.Fatalf("oversized placement must still be built: %v", err)
	}
	if _, hit, _ := tiny.Place(part, graphs[0], shares, 1); hit {
		t.Error("placement larger than the byte budget was retained")
	}
	if st := tiny.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("byte-bounded cache retained %d bytes / %d entries, want 0/0", st.Bytes, st.Entries)
	}
}

// TestPlacementCacheContention is the -race stress test: concurrent callers
// on the same key must collapse to exactly one ingress (single-flight),
// distinct keys must each run exactly once, and the hit/miss/eviction
// counters must balance — all while a bounded cache is evicting under load.
func TestPlacementCacheContention(t *testing.T) {
	const (
		sameKeyCallers = 8
		distinctKeys   = 6
		maxEntries     = 3
	)
	c := NewBoundedPlacementCache(maxEntries, 0)
	part := partition.NewHybrid()
	shares := partition.UniformShares(2)
	shared := cacheGraph(t, 99, 400, 3200)
	distinct := make([]*graph.Graph, distinctKeys)
	for i := range distinct {
		distinct[i] = cacheGraph(t, uint64(100+i), 200, 1200)
	}

	// Phase 1: every same-key caller races the same build. The phases are
	// sequential so a later distinct-key build can never evict the shared
	// entry out from under a same-key caller that has not looked it up yet —
	// that would turn an expected hit into a second miss and make the exact
	// counter assertions below scheduling-dependent.
	var wg sync.WaitGroup
	sameResults := make([]*engine.Placement, sameKeyCallers)
	for i := 0; i < sameKeyCallers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl, _, err := c.Place(part, shared, shares, 5)
			if err != nil {
				t.Error(err)
				return
			}
			sameResults[i] = pl
		}(i)
	}
	wg.Wait()
	// Phase 2: distinct keys race each other and force evictions.
	for i := 0; i < distinctKeys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := c.Place(part, distinct[i], shares, 5); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < sameKeyCallers; i++ {
		if sameResults[i] != sameResults[0] {
			t.Fatalf("caller %d got a different placement object: single-flight failed", i)
		}
	}
	st := c.Stats()
	// Exactly one ingress per distinct key: the shared key plus each distinct
	// graph. Same-key callers beyond the builder are hits.
	if st.Misses != distinctKeys+1 {
		t.Errorf("misses = %d, want %d (one ingress per key)", st.Misses, distinctKeys+1)
	}
	if st.Hits != sameKeyCallers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, sameKeyCallers-1)
	}
	if st.Entries > maxEntries {
		t.Errorf("entry bound violated under contention: %d > %d", st.Entries, maxEntries)
	}
	wantEvict := uint64(distinctKeys + 1 - maxEntries)
	if st.Evictions != wantEvict {
		t.Errorf("evictions = %d, want %d", st.Evictions, wantEvict)
	}
	if st.Bytes < 0 {
		t.Errorf("negative resident byte count %d", st.Bytes)
	}
}

// TestSessionCacheIdenticalAccounting is the acceptance check of the hit
// path: a cached session must report bit-identical execution accounting to an
// uncached one — hits change only which jobs pay ingress, never the results.
func TestSessionCacheIdenticalAccounting(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(12, 256, 21)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewThreadCount()

	cold := &Session{Cluster: cl}
	coldRep, err := cold.Run(jobs, est)
	if err != nil {
		t.Fatal(err)
	}
	cached := &Session{Cluster: cl, Cache: NewPlacementCache()}
	cachedRep, err := cached.Run(jobs, est)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if coldRep.JobSeconds[i] != cachedRep.JobSeconds[i] {
			t.Fatalf("job %d: cached %.12f != cold %.12f", i, cachedRep.JobSeconds[i], coldRep.JobSeconds[i])
		}
	}
	if coldRep.TotalEnergyJoules != cachedRep.TotalEnergyJoules {
		t.Error("cache changed the session's energy accounting")
	}
	if coldRep.Total() != cachedRep.Total() {
		t.Error("cache changed the cumulative clock of an uncharged session")
	}
	// 12 jobs over a handful of graphs under one estimator must repeat keys.
	if cachedRep.CacheHits == 0 {
		t.Fatal("session with a cache never hit: RandomJobs seeds defeat the key")
	}
	if cachedRep.CacheHits+cachedRep.CacheMisses != len(jobs) {
		t.Errorf("hits %d + misses %d != %d jobs", cachedRep.CacheHits, cachedRep.CacheMisses, len(jobs))
	}
	if coldRep.CacheHits != 0 || coldRep.CacheMisses != 0 {
		t.Error("uncached session reported cache counters")
	}
}

// TestSessionChargeIngress pins the throughput effect: misses pay the
// simulated ingress makespan on the cumulative clock, hits pay nothing, and
// every outcome is visible as a KindIngress trace event.
func TestSessionChargeIngress(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := RandomJobs(10, 256, 23)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewThreadCount()

	rec := trace.NewRecorder()
	s := &Session{Cluster: cl, Cache: NewPlacementCache(), ChargeIngress: true, Trace: rec}
	rep, err := s.Run(jobs, est)
	if err != nil {
		t.Fatal(err)
	}
	uncached := &Session{Cluster: cl, ChargeIngress: true}
	uncachedRep, err := uncached.Run(jobs, est)
	if err != nil {
		t.Fatal(err)
	}

	if rep.CacheHits == 0 {
		t.Fatal("charged session never hit the cache")
	}
	hits, misses := 0, 0
	for i, e := range rec.Events {
		if e.Kind != trace.KindIngress {
			continue
		}
		switch e.Label {
		case "hit":
			hits++
			if e.Seconds != 0 {
				t.Errorf("event %d: cache hit charged %.6fs of ingress", i, e.Seconds)
			}
		case "miss":
			misses++
			if e.Seconds <= 0 {
				t.Errorf("event %d: charged miss carries no ingress time", i)
			}
		default:
			t.Errorf("event %d: unexpected ingress label %q", i, e.Label)
		}
	}
	if hits != rep.CacheHits || misses != rep.CacheMisses {
		t.Errorf("trace saw %d/%d hit/miss events, report says %d/%d", hits, misses, rep.CacheHits, rep.CacheMisses)
	}

	var charged, uncharged float64
	for i := range jobs {
		charged += rep.IngressSeconds[i]
		uncharged += uncachedRep.IngressSeconds[i]
		if rep.JobSeconds[i] != uncachedRep.JobSeconds[i] {
			t.Fatalf("job %d: execution time depends on the cache", i)
		}
	}
	if charged >= uncharged {
		t.Errorf("cached session charged %.6fs of ingress, uncached %.6fs — hits saved nothing", charged, uncharged)
	}
	if rep.Total() >= uncachedRep.Total() {
		t.Error("placement cache did not improve charged session throughput")
	}
	// The cumulative clock must account for exactly the charged ingress.
	sum := rep.ProfilingSeconds
	for i := range jobs {
		sum += rep.IngressSeconds[i] + rep.JobSeconds[i]
	}
	if !approxEq(sum, rep.Total()) {
		t.Errorf("cumulative %.9f != profiling+ingress+exec %.9f", rep.Total(), sum)
	}
}

func TestRandomJobsSeedDomains(t *testing.T) {
	jobs, err := RandomJobs(40, 256, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs on the same graph share an ingress seed; distinct graphs get
	// distinct seeds (the per-graph derivation that makes caching effective).
	byGraph := map[string]uint64{}
	seeds := map[uint64]string{}
	for i, j := range jobs {
		if prev, ok := byGraph[j.Graph.Name]; ok {
			if prev != j.Seed {
				t.Fatalf("job %d on %s has seed %d, earlier jobs had %d", i, j.Graph.Name, j.Seed, prev)
			}
			continue
		}
		byGraph[j.Graph.Name] = j.Seed
		if other, dup := seeds[j.Seed]; dup {
			t.Fatalf("graphs %s and %s share ingress seed %d", other, j.Graph.Name, j.Seed)
		}
		seeds[j.Seed] = j.Graph.Name
	}
	// The ingress seeds must not replay the generator's seed sequence: no job
	// seed may collide with any graph-generation seed.
	if len(byGraph) < 2 {
		t.Fatal("workload degenerated to a single graph; seed-domain test is vacuous")
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
