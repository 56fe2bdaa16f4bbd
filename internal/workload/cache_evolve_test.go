package workload

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
)

// blockingFailPart blocks inside Partition until released, then fails —
// enough rope for concurrent callers to pile onto the single-flight entry.
type blockingFailPart struct {
	startedOnce sync.Once
	started     chan struct{}
	release     chan struct{}
}

func newBlockingFailPart() *blockingFailPart {
	return &blockingFailPart{started: make(chan struct{}), release: make(chan struct{})}
}

func (p *blockingFailPart) Name() string { return "blocking-fail" }

func (p *blockingFailPart) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	p.startedOnce.Do(func() { close(p.started) })
	<-p.release
	return nil, errors.New("ingress exploded")
}

// TestPlacementCacheJoinOnFailedBuild is the regression test for the
// hit-inflation bug: Place used to count a hit the moment a caller joined an
// in-flight build, before knowing whether the build would succeed. Callers
// joining a build that fails must get (hit=false, err) and the Hits counter
// must stay at zero — they received an error, not a cached placement.
func TestPlacementCacheJoinOnFailedBuild(t *testing.T) {
	c := NewPlacementCache()
	g := cacheGraph(t, 5, 50, 200)
	part := newBlockingFailPart()
	shares := partition.UniformShares(2)

	firstErr := make(chan error, 1)
	go func() {
		_, hit, err := c.Place(part, g, shares, 1)
		if hit {
			err = errors.New("builder reported a hit")
		}
		firstErr <- err
	}()
	<-part.started // the single-flight entry is installed before Partition runs

	const waiters = 6
	var wg, ready sync.WaitGroup
	wg.Add(waiters)
	ready.Add(waiters)
	errs := make([]error, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			ready.Done()
			_, hits[i], errs[i] = c.Place(part, g, shares, 1)
		}(i)
	}
	// Let the waiters reach the in-flight entry before the build fails, so
	// they exercise the join path rather than running fresh builds.
	ready.Wait()
	time.Sleep(50 * time.Millisecond)
	close(part.release)
	wg.Wait()

	if err := <-firstErr; err == nil {
		t.Fatal("builder did not surface the ingress error")
	}
	for i := 0; i < waiters; i++ {
		if errs[i] == nil {
			t.Fatalf("waiter %d got no error from the failed build", i)
		}
		if hits[i] {
			t.Fatalf("waiter %d reported hit=true on a failed build", i)
		}
	}
	st := c.Stats()
	if st.Hits != 0 {
		t.Fatalf("failed build inflated Hits to %d", st.Hits)
	}
	if st.Misses != 1 {
		t.Fatalf("single-flighted failure counted %d misses, want 1", st.Misses)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("failed build left an entry cached")
	}
}

// TestPartitionerTypeStringMatchesPercentT: partitionerFingerprint hashes
// reflect's type string where it once hashed fmt's %T, and cache keys must
// stay byte-identical, so the two strings must agree for every shipped
// partitioner (and for a pointer-receiver type defined outside the package).
func TestPartitionerTypeStringMatchesPercentT(t *testing.T) {
	parts := append(partition.WithExtensions(), &pointerTunedPart{})
	for _, p := range parts {
		if got, want := reflect.TypeOf(p).String(), fmt.Sprintf("%T", p); got != want {
			t.Errorf("%s: reflect type string %q, %%T prints %q", p.Name(), got, want)
		}
	}
}

// pointerTunedPart is the regression shape for the %+v fingerprint bug: its
// tuning lives behind a pointer, a slice and a map. Two structurally equal
// instances used to fingerprint differently because %+v renders the pointer's
// address.
type pointerTunedPart struct {
	Bias    *float64
	Weights []float64
	Knobs   map[string]int
}

func (p *pointerTunedPart) Name() string { return "pointer-tuned" }
func (p *pointerTunedPart) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	return nil, errors.New("fingerprint-only stub")
}

func TestPartitionerFingerprintStability(t *testing.T) {
	// Fresh instances of every registered partitioner must fingerprint
	// identically to a second fresh instance: equal config ⇒ equal key.
	a, b := partition.WithExtensions(), partition.WithExtensions()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("registry returned %d vs %d partitioners", len(a), len(b))
	}
	seen := map[uint64]string{}
	for i := range a {
		fa, fb := partitionerFingerprint(a[i]), partitionerFingerprint(b[i])
		if fa != fb {
			t.Errorf("%s: two default instances fingerprint %#x vs %#x", a[i].Name(), fa, fb)
		}
		if prev, dup := seen[fa]; dup {
			t.Errorf("%s and %s share fingerprint %#x", a[i].Name(), prev, fa)
		}
		seen[fa] = a[i].Name()
	}

	// Changing any tuning knob must change the fingerprint.
	tuned := []partition.Partitioner{
		func() partition.Partitioner { p := partition.NewHDRF(); p.Lambda *= 2; return p }(),
		func() partition.Partitioner { p := partition.NewHybrid(); p.Threshold += 17; return p }(),
		func() partition.Partitioner { p := partition.NewGinger(); p.Gamma += 0.5; return p }(),
		func() partition.Partitioner { p := partition.NewGinger(); p.Threshold += 1; return p }(),
	}
	for _, p := range tuned {
		fp := partitionerFingerprint(p)
		if name, dup := seen[fp]; dup {
			t.Errorf("re-tuned %s collides with default %s fingerprint", p.Name(), name)
		}
	}

	// Pointer/slice/map-valued tuning: structurally equal instances at
	// different addresses must share a fingerprint, and a changed pointee
	// must change it.
	mk := func(bias float64) *pointerTunedPart {
		return &pointerTunedPart{
			Bias:    &bias,
			Weights: []float64{0.25, 0.75},
			Knobs:   map[string]int{"alpha": 1, "beta": 2},
		}
	}
	if partitionerFingerprint(mk(1.5)) != partitionerFingerprint(mk(1.5)) {
		t.Error("structurally equal pointer-tuned instances fingerprint differently (address leaked)")
	}
	if partitionerFingerprint(mk(1.5)) == partitionerFingerprint(mk(2.5)) {
		t.Error("changed pointee did not change the fingerprint")
	}
}

// plainPart hides a partitioner's Amend method, modeling an algorithm with no
// incremental path.
type plainPart struct{ inner partition.Partitioner }

func (p plainPart) Name() string { return p.inner.Name() }
func (p plainPart) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	return p.inner.Partition(g, shares, seed)
}

// failAmender amends by failing, exercising the fallback-to-full-build path.
type failAmender struct{ *partition.Hybrid }

func (f failAmender) Amend(base *graph.Graph, owner []engine.Machine, d *graph.Delta, evolved *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	return nil, errors.New("amend refused")
}

func evolveOnce(t *testing.T, g *graph.Graph, seed uint64) (*graph.Delta, *graph.Graph) {
	t.Helper()
	d, err := gen.RandomDelta(g, gen.DeltaSpec{Inserts: 40, Deletes: 40, Time: 1}, seed)
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	return d, evolved
}

func TestPlaceEvolvedOutcomes(t *testing.T) {
	c := NewPlacementCache()
	g := cacheGraph(t, 6, 400, 3000)
	part := partition.NewHDRF()
	shares := partition.UniformShares(2)

	if _, hit, err := c.Place(part, g, shares, 3); err != nil || hit {
		t.Fatalf("base ingress: hit=%v err=%v", hit, err)
	}
	d, evolved := evolveOnce(t, g, 11)

	pl, outcome, err := c.PlaceEvolved(part, g, d, evolved, shares, 3)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PlaceAmend {
		t.Fatalf("cached base version amended as %v", outcome)
	}
	again, outcome, err := c.PlaceEvolved(part, g, d, evolved, shares, 3)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PlaceHit || again != pl {
		t.Fatalf("repeat request: outcome %v, same object %v", outcome, again == pl)
	}
	// Plain Place on the evolved graph revalidates by content and hits too.
	if _, hit, err := c.Place(part, evolved, shares, 3); err != nil || !hit {
		t.Fatalf("content-keyed Place on evolved graph: hit=%v err=%v", hit, err)
	}
	st := c.Stats()
	if st.Amends != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 amend / 2 hits / 1 miss", st)
	}

	// Cold cache: no base placement to amend from, so a full build runs.
	cold := NewPlacementCache()
	if _, outcome, err := cold.PlaceEvolved(part, g, d, evolved, shares, 3); err != nil || outcome != PlaceMiss {
		t.Fatalf("cold cache: outcome %v err %v", outcome, err)
	}

	// A partitioner without an Amend path misses even with the base cached.
	noAmend := NewPlacementCache()
	pp := plainPart{inner: partition.NewRandomHash()}
	if _, _, err := noAmend.Place(pp, g, shares, 3); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := noAmend.PlaceEvolved(pp, g, d, evolved, shares, 3); err != nil || outcome != PlaceMiss {
		t.Fatalf("non-amender: outcome %v err %v", outcome, err)
	}
}

func TestPlaceEvolvedAmendFailureFallsBack(t *testing.T) {
	c := NewPlacementCache()
	g := cacheGraph(t, 7, 300, 2000)
	part := failAmender{partition.NewHybrid()}
	shares := partition.UniformShares(3)

	if _, _, err := c.Place(part, g, shares, 9); err != nil {
		t.Fatal(err)
	}
	d, evolved := evolveOnce(t, g, 13)
	pl, outcome, err := c.PlaceEvolved(part, g, d, evolved, shares, 9)
	if err != nil {
		t.Fatalf("fallback build failed: %v", err)
	}
	if outcome != PlaceMiss {
		t.Fatalf("failed amendment classified as %v, want miss", outcome)
	}
	st := c.Stats()
	if st.Amends != 0 {
		t.Fatalf("failed amendment left Amends at %d", st.Amends)
	}
	if st.Misses != 2 {
		t.Fatalf("misses %d, want 2 (base build + fallback)", st.Misses)
	}
	// The fallback result is the full deterministic build.
	want, err := partition.Apply(part, evolved, shares, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.EdgeOwner) != len(want.EdgeOwner) {
		t.Fatalf("fallback owner vector length %d vs %d", len(pl.EdgeOwner), len(want.EdgeOwner))
	}
	for i := range want.EdgeOwner {
		if pl.EdgeOwner[i] != want.EdgeOwner[i] {
			t.Fatalf("fallback owner %d differs from full build", i)
		}
	}
}
