package workload

import (
	"cmp"
	"runtime"
	"slices"
	"testing"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// fpBase builds a graph with a duplicate (Src, Dst) pair, so a delete
// removes one occurrence and the other stays in the multiset.
func fpBase() *graph.Graph {
	return &graph.Graph{
		Name:        "fp-base",
		NumVertices: 6,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}},
	}
}

// FingerprintMemoSize reports the number of memoized graph fingerprints.
func FingerprintMemoSize() int {
	fpMu.Lock()
	defer fpMu.Unlock()
	return len(fpMemo)
}

// rescanCopy re-hashes a structural copy of g, so the memo entry written by
// EvolveFingerprint cannot mask a wrong incremental value.
func rescanCopy(g *graph.Graph) uint64 {
	return GraphFingerprint(&graph.Graph{
		Name:        g.Name,
		NumVertices: g.NumVertices,
		Edges:       slices.Clone(g.Edges),
	})
}

func TestEvolveFingerprintMatchesRescan(t *testing.T) {
	cases := []struct {
		name string
		base *graph.Graph
		d    *graph.Delta
	}{
		{
			"mixed",
			&graph.Graph{Name: "u", NumVertices: 4, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}},
			&graph.Delta{Time: 5, Deletes: []graph.Edge{{Src: 1, Dst: 3}}, Inserts: []graph.Edge{{Src: 3, Dst: 0}}},
		},
		{
			"duplicate pair",
			fpBase(),
			&graph.Delta{
				Time:    3,
				Deletes: []graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}},
				Inserts: []graph.Edge{{Src: 5, Dst: 0}, {Src: 0, Dst: 1}},
			},
		},
		{
			"duplicate deletes",
			fpBase(),
			&graph.Delta{Time: 4, Deletes: []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evolved, err := tc.d.Apply(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvolveFingerprint(tc.base, tc.d, evolved)
			if err != nil {
				t.Fatal(err)
			}
			if want := rescanCopy(evolved); got != want {
				t.Fatalf("EvolveFingerprint = %#x, rescan = %#x", got, want)
			}
			// The incremental path must have memoized the evolved graph.
			if memo := GraphFingerprint(evolved); memo != got {
				t.Fatalf("memoized fingerprint %#x differs from evolve result %#x", memo, got)
			}
			// Versions are distinguishable unless the content is identical.
			if tc.d.Size() > 0 && got == GraphFingerprint(tc.base) {
				t.Fatal("non-empty delta left the fingerprint unchanged")
			}
		})
	}
}

func TestEvolveFingerprintChain(t *testing.T) {
	// Chaining several deltas stays bit-identical to rescanning the final
	// version — the property the placement cache's (baseFP, deltaFP)
	// revalidation rests on.
	cur := fpBase()
	for step := uint64(1); step <= 4; step++ {
		d := &graph.Delta{
			Time:    step,
			Deletes: []graph.Edge{cur.Edges[int(step)%len(cur.Edges)]},
			Inserts: []graph.Edge{{Src: graph.VertexID(step % 6), Dst: (graph.VertexID(step%6) + 1) % 6}},
		}
		evolved, err := d.Apply(cur)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := EvolveFingerprint(cur, d, evolved)
		if err != nil {
			t.Fatal(err)
		}
		if want := rescanCopy(evolved); fp != want {
			t.Fatalf("step %d: chained fp %#x, rescan %#x", step, fp, want)
		}
		cur = evolved
	}
}

// fingerprintSpec is the executable spec of rescanFingerprint: one
// sequential Σ edgeTerm.
func fingerprintSpec(g *graph.Graph) uint64 {
	fp := vertexTerm(g.NumVertices)
	for _, e := range g.Edges {
		fp += edgeTerm(e)
	}
	return fp
}

// TestFingerprintWorkerInvariance pins the sharded rescan to the sequential
// spec at every shard count, on graphs down to zero and one edge (fewer edges
// than shards).
func TestFingerprintWorkerInvariance(t *testing.T) {
	multi := &graph.Graph{Name: "multi", NumVertices: 211}
	state := uint64(7)
	for i := 0; i < 4099; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u, v := graph.VertexID(state>>33%211), graph.VertexID(state>>13%23)
		multi.Edges = append(multi.Edges, graph.Edge{Src: u, Dst: v})
	}
	// Grouped by source, as generated graphs are, so source runs cross the
	// shard boundaries.
	grouped := slices.SortedStableFunc(slices.Values(multi.Edges), func(a, b graph.Edge) int {
		return cmp.Compare(a.Src, b.Src)
	})
	graphs := []*graph.Graph{
		{Name: "empty", NumVertices: 3},
		{Name: "one", NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}},
		{Name: "seven", NumVertices: 211, Edges: multi.Edges[:7]},
		multi,
		{Name: "grouped", NumVertices: 211, Edges: grouped},
	}
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, g := range graphs {
			if got, want := rescanFingerprint(g), fingerprintSpec(g); got != want {
				t.Errorf("GOMAXPROCS %d, %s: sharded rescan %#x, sequential spec %#x", procs, g.Name, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestFingerprintPermutationInvariance(t *testing.T) {
	a := &graph.Graph{
		NumVertices: 4,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
	}
	b := &graph.Graph{
		NumVertices: 4,
		Edges:       []graph.Edge{{Src: 2, Dst: 3}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
	}
	if GraphFingerprint(a) != GraphFingerprint(b) {
		t.Fatal("edge-list permutation changed the multiset fingerprint")
	}
}

func TestReleaseGraphFingerprint(t *testing.T) {
	g := fpBase()
	GraphFingerprint(g)
	before := FingerprintMemoSize()
	ReleaseGraphFingerprint(g)
	if after := FingerprintMemoSize(); after != before-1 {
		t.Fatalf("release left memo at %d (was %d)", after, before)
	}
	// Releasing again (or releasing a never-fingerprinted graph) is a no-op.
	ReleaseGraphFingerprint(g)
	ReleaseGraphFingerprint(nil)
	// Re-fingerprinting after release re-memoizes at the same value.
	want := rescanCopy(g)
	if got := GraphFingerprint(g); got != want {
		t.Fatalf("re-fingerprint after release: %#x, want %#x", got, want)
	}
}

// TestReleaseStopsCleanup releases and re-fingerprints one live graph many
// times. Each fingerprint arms a collection-time cleanup; a release that left
// it armed kept a closure per cycle (about 40 bytes) on the heap until the
// graph died, 400 KB over these cycles.
func TestReleaseStopsCleanup(t *testing.T) {
	const cycles = 10000
	g := &graph.Graph{NumVertices: 3, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for range cycles {
		GraphFingerprint(g)
		ReleaseGraphFingerprint(g)
	}
	after := heap()
	runtime.KeepAlive(g)
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Errorf("%d release cycles on a live graph retained %d bytes after GC, want at most 64 KiB", cycles, grown)
	}
}

// TestFingerprintedGraphsAreCollectable is the regression test for the memo
// leak: the old sync.Map keyed on *graph.Graph pinned every fingerprinted
// graph forever. With weak keys the graphs must become collectable once the
// caller drops them, and the collection-time cleanup must drain the memo.
func TestFingerprintedGraphsAreCollectable(t *testing.T) {
	const batch = 64
	base := FingerprintMemoSize()
	func() {
		for i := 0; i < batch; i++ {
			g := &graph.Graph{
				Name:        "ephemeral",
				NumVertices: 8 + i,
				Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
			}
			GraphFingerprint(g)
		}
	}()
	if grown := FingerprintMemoSize(); grown < base+batch {
		t.Fatalf("memo holds %d entries after %d fingerprints (base %d)", grown, batch, base)
	}
	// Cleanups run asynchronously after collection; poll across GC cycles.
	deadline := time.Now().Add(10 * time.Second)
	for FingerprintMemoSize() > base {
		if time.Now().After(deadline) {
			t.Fatalf("memo stuck at %d entries (want <= %d): fingerprinted graphs are not collectable",
				FingerprintMemoSize(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFingerprintPins compares fingerprints against literal values. The
// journal persists job fingerprints and a keyed resubmission compares them,
// so a drift in edgeTerm would make every retry after an upgrade a key
// conflict; the tests above check the rescan and the incremental path against
// Σ edgeTerm and cannot see such a drift.
func TestFingerprintPins(t *testing.T) {
	g := cacheGraph(t, 58, 400, 3200)
	d, err := gen.RandomDelta(g, gen.DeltaSpec{Inserts: 40, Deletes: 30, Time: 1}, 58)
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	evolvedFP, err := EvolveFingerprint(g, d, evolved)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{App: apps.NewSSSP(), Graph: g, Seed: 7}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"GraphFingerprint", GraphFingerprint(g), 0x4c007f70f80c0b61},
		{"EvolveFingerprint", evolvedFP, 0x41dcb292137ea060},
		{"Job.Fingerprint", job.Fingerprint(), 0x3b78984386423288},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Errorf("got %#x, want %#x", c.got, c.want)
			}
		})
	}
}
