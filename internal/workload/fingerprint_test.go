package workload

import (
	"cmp"
	"runtime"
	"slices"
	"testing"
	"time"

	"proxygraph/internal/graph"
)

// fpBase builds a weighted graph with duplicate (Src, Dst) pairs at distinct
// weights — the case where delete-to-weight matching matters.
func fpBase() *graph.Graph {
	return &graph.Graph{
		Name:        "fp-base",
		NumVertices: 6,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}},
		Weights:     []float32{1, 2, 3, 4, 5, 6},
	}
}

// rescanCopy re-hashes a structural copy of g, so the memo entry written by
// EvolveFingerprint cannot mask a wrong incremental value.
func rescanCopy(g *graph.Graph) uint64 {
	cp := &graph.Graph{
		Name:        g.Name,
		NumVertices: g.NumVertices,
		Edges:       append([]graph.Edge(nil), g.Edges...),
	}
	if g.Weights != nil {
		cp.Weights = append([]float32(nil), g.Weights...)
	}
	return GraphFingerprint(cp)
}

func TestEvolveFingerprintMatchesRescan(t *testing.T) {
	cases := []struct {
		name string
		base *graph.Graph
		d    *graph.Delta
	}{
		{
			"weighted mixed",
			fpBase(),
			&graph.Delta{
				Time:          3,
				Deletes:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}},
				Inserts:       []graph.Edge{{Src: 5, Dst: 0}, {Src: 0, Dst: 1}},
				InsertWeights: []float32{7, 9},
			},
		},
		{
			"weighted duplicate deletes",
			fpBase(),
			&graph.Delta{Time: 4, Deletes: []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}},
		},
		{
			"unweighted grow",
			&graph.Graph{Name: "u", NumVertices: 3, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}},
			&graph.Delta{Time: 5, Inserts: []graph.Edge{{Src: 2, Dst: 6}}, NumVertices: 8},
		},
		{
			"unweighted shrink",
			&graph.Graph{Name: "u", NumVertices: 5, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 4}}},
			&graph.Delta{Time: 6, Deletes: []graph.Edge{{Src: 1, Dst: 4}}, NumVertices: 2},
		},
		{
			"weighted inserts on unweighted base",
			&graph.Graph{Name: "u", NumVertices: 4, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}},
			&graph.Delta{Time: 7, Inserts: []graph.Edge{{Src: 1, Dst: 3}}, InsertWeights: []float32{2.5}},
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
			Time:          step,
			Deletes:       []graph.Edge{cur.Edges[int(step)%len(cur.Edges)]},
			Inserts:       []graph.Edge{{Src: graph.VertexID(step % 6), Dst: (graph.VertexID(step%6) + 1) % 6}},
			InsertWeights: []float32{float32(step)},
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

func TestFingerprintUnweightedEqualsUnitWeights(t *testing.T) {
	bare := &graph.Graph{NumVertices: 4, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}}
	unit := &graph.Graph{
		NumVertices: 4,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		Weights:     []float32{1, 1, 1},
	}
	if GraphFingerprint(bare) != GraphFingerprint(unit) {
		t.Fatal("unweighted graph and its all-1-weight twin must fingerprint identically")
	}
	scaled := &graph.Graph{
		NumVertices: 4,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		Weights:     []float32{1, 1, 2},
	}
	if GraphFingerprint(bare) == GraphFingerprint(scaled) {
		t.Fatal("a changed weight must change the fingerprint")
	}
}

// fingerprintSpec is the executable spec of rescanFingerprint: one
// sequential Σ edgeTerm, the weight read per edge.
func fingerprintSpec(g *graph.Graph) uint64 {
	fp := vertexTerm(g.NumVertices)
	for i, e := range g.Edges {
		fp += edgeTerm(e, g.Weight(i))
	}
	return fp
}

// TestFingerprintWorkerInvariance pins the sharded rescan to the sequential
// spec at every shard count, on weighted and unweighted graphs down to zero
// and one edge (fewer edges than shards).
func TestFingerprintWorkerInvariance(t *testing.T) {
	multi := &graph.Graph{Name: "multi", NumVertices: 211}
	state := uint64(7)
	for i := 0; i < 4099; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u, v := graph.VertexID(state>>33%211), graph.VertexID(state>>13%23)
		multi.Edges = append(multi.Edges, graph.Edge{Src: u, Dst: v})
		multi.Weights = append(multi.Weights, float32(state>>50%5)/2)
	}
	// Grouped by source, as generated graphs are, so source runs cross the
	// shard boundaries.
	grouped := slices.SortedStableFunc(slices.Values(multi.Edges), func(a, b graph.Edge) int {
		return cmp.Compare(a.Src, b.Src)
	})
	graphs := []*graph.Graph{
		{Name: "empty", NumVertices: 3},
		{Name: "empty-weighted", NumVertices: 3, Weights: []float32{}},
		{Name: "one", NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}},
		{Name: "one-weighted", NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}, Weights: []float32{2.5}},
		{Name: "seven", NumVertices: 211, Edges: multi.Edges[:7]},
		{Name: "seven-weighted", NumVertices: 211, Edges: multi.Edges[:7], Weights: multi.Weights[:7]},
		{Name: "multi-bare", NumVertices: 211, Edges: multi.Edges},
		multi,
		{Name: "grouped", NumVertices: 211, Edges: grouped},
		{Name: "grouped-weighted", NumVertices: 211, Edges: grouped, Weights: multi.Weights},
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
		Weights:     []float32{3, 2, 1},
	}
	b := &graph.Graph{
		NumVertices: 4,
		Edges:       []graph.Edge{{Src: 2, Dst: 3}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
		Weights:     []float32{1, 3, 2},
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
