package graph

import (
	"runtime"
	"slices"
	"testing"
)

// withProcs sets GOMAXPROCS, which sizes the parallel scans, for the rest of
// the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestInDegreesParallelMatchesSequential(t *testing.T) {
	graphs := []*Graph{
		diamond(),
		randomGraph(t, 83, 500, 4000),
		{NumVertices: 7}, // empty edge list
		{NumVertices: 3, Edges: []Edge{{0, 1}, {2, 1}}}, // fewer edges than workers
	}
	for gi, g := range graphs {
		want := g.InDegrees()
		for _, procs := range []int{1, 2, 3, 8, 64} {
			withProcs(t, procs)
			got := g.InDegreesParallel()
			if len(got) != len(want) {
				t.Fatalf("graph %d GOMAXPROCS %d: length %d, want %d", gi, procs, len(got), len(want))
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("graph %d GOMAXPROCS %d: vertex %d degree %d, want %d",
						gi, procs, v, got[v], want[v])
				}
			}
			// The next scan starts from this array's dirty counts.
			ReleaseDegrees(got)
		}
	}
}

// The out-direction scan has no parallel form of its own (its last caller,
// the engine, no longer counts degrees): a graph's out-degrees are its
// transpose's in-degrees, which holds the parallel scan to a second set of
// inputs.
func TestOutDegreesParallelMatchesSequential(t *testing.T) {
	graphs := []*Graph{
		diamond(),
		randomGraph(t, 89, 500, 4000),
		{NumVertices: 7},
		{NumVertices: 3, Edges: []Edge{{0, 1}, {2, 1}}},
	}
	for gi, g := range graphs {
		want := g.OutDegrees()
		transpose := &Graph{NumVertices: g.NumVertices, Edges: make([]Edge, len(g.Edges))}
		for i, e := range g.Edges {
			transpose.Edges[i] = Edge{Src: e.Dst, Dst: e.Src}
		}
		for _, procs := range []int{1, 2, 3, 8, 64} {
			withProcs(t, procs)
			got := transpose.InDegreesParallel()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("graph %d GOMAXPROCS %d: vertex %d out-degree %d, want %d",
						gi, procs, v, got[v], want[v])
				}
			}
		}
	}
}

// TestCSRIntoMatchesBuild pins the reusable unsorted builder against the
// sorted one: same rows as multisets, and a second rebuild into the same
// storage (after a larger graph stretched it) stays correct.
func TestCSRIntoMatchesBuild(t *testing.T) {
	big := randomGraph(t, 97, 600, 5000)
	small := randomGraph(t, 101, 40, 200)
	var got CSR
	for gi, g := range []*Graph{big, small, {NumVertices: 5}, diamond()} {
		g.InCSRInto(&got)
		want := g.BuildInCSR()
		if len(got.Offsets) != len(want.Offsets) {
			t.Fatalf("graph %d: offsets length %d, want %d", gi, len(got.Offsets), len(want.Offsets))
		}
		for v := 0; v < g.NumVertices; v++ {
			a := append([]VertexID(nil), got.Neighbors(VertexID(v))...)
			b := want.Neighbors(VertexID(v))
			slices.Sort(a)
			if !slices.Equal(a, b) {
				t.Fatalf("graph %d: vertex %d row %v, want %v", gi, v, a, b)
			}
		}
	}
}

// TestInDegreesReleaseAllocs pins what a warm InDegreesParallel and
// ReleaseDegrees pair allocates at two workers: 4 + 2·2 = 8 small objects —
// the box slice, the scan's two closures, each par.Ranges call's WaitGroup
// and spawned goroutine, and the box ReleaseDegrees puts the result in. No
// count array is allocated, and a scratch array goes back to the pool in the
// box it came out in: a fresh result array, or a box per returned array,
// would push the count past the ceiling. The scheduler adds a stray
// allocation now and then, so the average may exceed it by under a half.
func TestInDegreesReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a race build's sync.Pool drops items at random")
	}
	withProcs(t, 2)
	g := randomGraph(t, 83, 5000, 40000)
	pair := func() { ReleaseDegrees(g.InDegreesParallel()) }
	pair()
	const runs, ceiling = 100, 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		pair()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.2f allocations, %d bytes per pair", got, (after.TotalAlloc-before.TotalAlloc)/runs)
	if got > ceiling+0.5 {
		t.Errorf("a warm InDegreesParallel + ReleaseDegrees pair allocates %.2f objects, want at most %d", got, ceiling)
	}
}
