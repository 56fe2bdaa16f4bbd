package workload

import (
	"container/list"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/rng"
)

// PlacementCache memoizes finalized placements across the jobs of a session
// (or across sessions sharing the cache), keyed by the content of everything
// ingress depends on: the graph's edges, the partitioner and its parameters,
// the share vector and the hashing seed. A repeated (graph, partitioner,
// shares, seed) job skips partitioning and finalization entirely — the paper's
// Section III-B amortization argument ("graph applications are often reused
// to analyze dozens of different real world graphs") applied to ingress.
//
// Concurrent callers asking for the same key are single-flighted: the first
// runs ingress, later ones block on its completion and share the placement.
// Sharing is sound because a Placement is immutable once finalized — every
// engine entry point treats it as read-only (each lazily compiled gather
// layout is behind a sync.Once).
//
// A cache shared by a long-running multi-tenant service cannot grow without
// bound, so the cache optionally enforces an entry-count and a byte limit
// (on engine.Placement.FootprintBound) with LRU eviction: whenever a build
// completes, the least-recently-used finished entries are dropped until both
// limits hold again. In-flight builds are never evicted (their waiters hold
// the entry), so a burst of more concurrent distinct keys than MaxEntries can
// transiently exceed the entry limit until those builds finish; completed
// state never does. Evicting never invalidates placements already handed out — callers
// keep their references, the cache just forgets.
type PlacementCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	// lru orders completed entries, most recently used at the front. Values
	// are *cacheEntry; in-flight entries are not in the list.
	lru        *list.List
	maxEntries int
	maxBytes   int64
	bytes      int64

	hits, misses, amends, evictions uint64
	ingressWall                     time.Duration
}

// PlaceOutcome reports how PlaceEvolved satisfied a request.
type PlaceOutcome int

const (
	// PlaceMiss means a full ingress ran.
	PlaceMiss PlaceOutcome = iota
	// PlaceHit means the placement was served from the cache.
	PlaceHit
	// PlaceAmend means the base version's cached placement was patched
	// incrementally for the evolved graph.
	PlaceAmend
)

// String renders the outcome for experiment tables.
func (o PlaceOutcome) String() string {
	switch o {
	case PlaceHit:
		return "hit"
	case PlaceAmend:
		return "amend"
	default:
		return "miss"
	}
}

// cacheKey is the content fingerprint of one ingress invocation.
type cacheKey struct {
	graphFP  uint64
	partFP   uint64
	sharesFP uint64
	seed     uint64
	machines int
}

// cacheEntry is a single-flight slot: done closes when the placement (or the
// ingress error) is available.
type cacheEntry struct {
	key   cacheKey
	done  chan struct{}
	pl    *engine.Placement
	err   error
	bytes int64
	elem  *list.Element // nil while the build is in flight or after eviction
}

// NewPlacementCache returns an empty, unbounded cache.
func NewPlacementCache() *PlacementCache {
	return &PlacementCache{entries: make(map[cacheKey]*cacheEntry), lru: list.New()}
}

// NewBoundedPlacementCache returns a cache evicting least-recently-used
// placements beyond maxEntries entries or maxBytes of placement footprint, as
// bounded by engine.Placement.FootprintBound. A zero (or negative) limit
// means unbounded in that dimension, so NewBoundedPlacementCache(0, 0)
// behaves exactly like NewPlacementCache.
func NewBoundedPlacementCache(maxEntries int, maxBytes int64) *PlacementCache {
	c := NewPlacementCache()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	return c
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	// Hits counts placements served from the cache, including callers that
	// joined an in-flight build — but only joins that received a placement. A
	// join on a build that fails is not a hit: the caller got an error, not a
	// cached placement.
	Hits uint64
	// Misses counts full ingress runs the cache performed.
	Misses uint64
	// Amends counts evolved-graph requests served by incrementally patching
	// the base version's placement (see PlaceEvolved) — cheaper than a miss,
	// not as free as a hit, so they are counted separately from both.
	Amends uint64
	// Evictions counts completed entries dropped to satisfy the entry or
	// byte bound.
	Evictions uint64
	// Entries is the current entry count (including in-flight builds) and
	// Bytes the completed ones' summed FootprintBound: an upper bound on what
	// they hold with every gather layout compiled.
	Entries int
	Bytes   int64
	// IngressWallSeconds is the host wall-clock time spent inside
	// partition.Apply on misses — the time hits avoid.
	IngressWallSeconds float64
}

// Stats returns the current counters.
func (c *PlacementCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:               c.hits,
		Misses:             c.misses,
		Amends:             c.amends,
		Evictions:          c.evictions,
		Entries:            len(c.entries),
		Bytes:              c.bytes,
		IngressWallSeconds: c.ingressWall.Seconds(),
	}
}

// Place returns the finalized placement for (part, g, shares, seed), running
// ingress on the first request for a key and serving every repeat from the
// cache. hit reports whether ingress was skipped.
func (c *PlacementCache) Place(part partition.Partitioner, g *graph.Graph, shares []float64, seed uint64) (pl *engine.Placement, hit bool, err error) {
	key := c.keyFP(GraphFingerprint(g), part, shares, seed)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		return c.join(e)
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	start := time.Now()
	e.pl, e.err = partition.Apply(part, g, shares, seed)
	c.finish(e, time.Since(start))
	return e.pl, false, e.err
}

// PlaceEvolved returns the finalized placement for the evolved graph (d
// applied to base) under (part, shares, seed), revalidating by content: the
// evolved version's fingerprint is chained from base's over the batch
// (EvolveFingerprint), a cached evolved placement is a hit, and when the base
// version's placement is cached and the partitioner can amend, the evolved
// placement is patched incrementally from it instead of re-ingressing —
// falling back to a full build if amendment fails. evolved must be
// d.Apply(base)'s result.
func (c *PlacementCache) PlaceEvolved(part partition.Partitioner, base *graph.Graph, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) (pl *engine.Placement, outcome PlaceOutcome, err error) {
	evolvedFP, err := EvolveFingerprint(base, d, evolved)
	if err != nil {
		return nil, PlaceMiss, fmt.Errorf("workload: evolve fingerprint: %w", err)
	}
	key := c.keyFP(evolvedFP, part, shares, seed)
	baseKey := c.keyFP(GraphFingerprint(base), part, shares, seed)

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		pl, hit, err := c.join(e)
		if !hit {
			return nil, PlaceMiss, err
		}
		return pl, PlaceHit, nil
	}
	// The base placement is usable for amendment only if its build already
	// completed cleanly; an in-flight base build is not waited on — a full
	// ingress of the evolved graph is no slower than one of the base.
	var basePl *engine.Placement
	amender, canAmend := part.(partition.Amender)
	if be, ok := c.entries[baseKey]; ok && canAmend {
		select {
		case <-be.done:
			if be.err == nil {
				basePl = be.pl
				if be.elem != nil {
					c.lru.MoveToFront(be.elem)
				}
			}
		default:
		}
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	if basePl != nil {
		c.amends++
	} else {
		c.misses++
	}
	c.mu.Unlock()

	outcome = PlaceMiss
	start := time.Now()
	if basePl != nil {
		outcome = PlaceAmend
		e.pl, e.err = partition.AmendApply(amender, basePl, d, evolved, shares, seed)
		if e.err != nil {
			// Amendment is an optimization, not a contract: rebuild from
			// scratch and reclassify the request as a miss.
			outcome = PlaceMiss
			c.mu.Lock()
			c.amends--
			c.misses++
			c.mu.Unlock()
			e.pl, e.err = partition.Apply(part, evolved, shares, seed)
		}
	} else {
		e.pl, e.err = partition.Apply(part, evolved, shares, seed)
	}
	c.finish(e, time.Since(start))
	return e.pl, outcome, e.err
}

// join serves a request from an existing entry, blocking on an in-flight
// build. The caller must hold c.mu; join releases it. A join on a build that
// fails reports hit=false and counts nothing — the caller received an error,
// not a placement.
func (c *PlacementCache) join(e *cacheEntry) (*engine.Placement, bool, error) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	<-e.done
	if e.err != nil {
		return nil, false, e.err
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return e.pl, true, nil
}

// finish publishes a build's result: wake the waiters, then either drop the
// entry (failures are not cached — a later retry must re-run ingress) or
// promote it into the LRU order and enforce the bounds.
func (c *PlacementCache) finish(e *cacheEntry, elapsed time.Duration) {
	close(e.done)
	var bytes int64
	if e.err == nil {
		// Every gather layout compiles only when a run first reads it; the
		// bound charges all three up front so eviction errs toward staying
		// under the budget.
		bytes = e.pl.FootprintBound()
	}
	c.mu.Lock()
	c.ingressWall += elapsed
	if e.err != nil {
		delete(c.entries, e.key)
	} else if cur, still := c.entries[e.key]; still && cur == e {
		e.bytes = bytes
		c.bytes += e.bytes
		e.elem = c.lru.PushFront(e)
		c.evictOverLimitLocked(e)
	}
	c.mu.Unlock()
}

// evictOverLimitLocked drops least-recently-used completed entries until both
// bounds hold. keep is the entry that just completed: it is evicted last, so
// a placement larger than the whole byte budget passes through the cache
// without ever being retained — the caller still gets it, the cache just
// refuses to keep it.
func (c *PlacementCache) evictOverLimitLocked(keep *cacheEntry) {
	over := func() bool {
		return (c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)
	}
	for over() && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		if e == keep {
			// keep is the only other candidate; fall through to the final
			// check below.
			break
		}
		c.removeLocked(e)
	}
	if over() {
		c.removeLocked(keep)
	}
}

// removeLocked evicts one completed entry.
func (c *PlacementCache) removeLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.evictions++
}

// keyFP fingerprints one ingress invocation, with the graph identified by an
// already-computed content fingerprint.
func (c *PlacementCache) keyFP(graphFP uint64, part partition.Partitioner, shares []float64, seed uint64) cacheKey {
	sharesFP := uint64(0x73686172) // "shar" domain
	for _, s := range shares {
		sharesFP = rng.Hash2(sharesFP, math.Float64bits(s))
	}
	return cacheKey{
		graphFP:  graphFP,
		partFP:   partitionerFingerprint(part),
		sharesFP: sharesFP,
		seed:     seed,
		machines: len(shares),
	}
}

// partitionerFingerprint identifies the algorithm and its parameters by
// hashing the type name, Name() and every exported field value explicitly, so
// two instances of the same type with different tuning never share placements
// and two instances with equal tuning always do. The previous %+v rendering
// broke the second half of that contract the moment a partitioner grew a
// pointer- or slice-valued field: %+v prints addresses for those, making the
// fingerprint differ between structurally identical instances (and between
// process runs).
func partitionerFingerprint(part partition.Partitioner) uint64 {
	h := rng.Hash2(0x70617274 /* "part" */, rng.HashString(part.Name()))
	// reflect's type string is what %T prints, without a printer per lookup.
	h = rng.Hash2(h, rng.HashString(reflect.TypeOf(part).String()))
	v := reflect.ValueOf(part)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return rng.Hash2(h, 0)
		}
		v = v.Elem()
	}
	return hashReflect(h, v)
}

// hashReflect folds a value's content into h by structure, not by rendering:
// numeric and string leaves hash their values, composites recurse in
// declaration/index order, and pointers hash their pointees (with a nil/non-
// nil discriminant) — never their addresses.
func hashReflect(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			h = rng.Hash2(h, rng.HashString(f.Name))
			h = hashReflect(h, v.Field(i))
		}
		return h
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return rng.Hash2(h, 0)
		}
		return hashReflect(rng.Hash2(h, 1), v.Elem())
	case reflect.Slice, reflect.Array:
		h = rng.Hash2(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h = hashReflect(h, v.Index(i))
		}
		return h
	case reflect.Map:
		// Order-independent: sum the entry hashes so iteration order cannot
		// leak into the fingerprint.
		var sum uint64
		for it := v.MapRange(); it.Next(); {
			sum += rng.Hash2(hashReflect(0x6b, it.Key()), hashReflect(0x76, it.Value()))
		}
		return rng.Hash2(rng.Hash2(h, uint64(v.Len())), sum)
	case reflect.Bool:
		if v.Bool() {
			return rng.Hash2(h, 1)
		}
		return rng.Hash2(h, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rng.Hash2(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return rng.Hash2(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return rng.Hash2(h, math.Float64bits(v.Float()))
	case reflect.String:
		return rng.Hash2(h, rng.HashString(v.String()))
	default:
		// Funcs, chans, unsafe pointers: no stable content to hash. Fold in
		// the kind so the field still participates in the fingerprint.
		return rng.Hash2(h, uint64(v.Kind()))
	}
}
