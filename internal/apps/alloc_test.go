package apps

import (
	"errors"
	"strings"
	"testing"

	"proxygraph/internal/graph"
)

// TestOffEngineAppAllocs pins the allocations of one run of each app that
// keeps its own round loop instead of engine.Run, on a fixed 4-machine
// placement. The step counters live on the stack (a placement has at most
// engine.MaxMachines machines), and so do KCore's survivor-list headers: on
// the heap they were one allocation more per app, two for KCore.
func TestOffEngineAppAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := testGraph(t, 95, 400, 3200)
	pl, cl := moduloPlacement(t, g, 4), multiCluster(t, 4)
	for _, tc := range []struct {
		app  App
		want float64
	}{
		{NewSSSP(), 7},
		{NewKCore(), 11},
		{NewColoring(), 11},
		{NewTriangleCount(), 14},
		{NewPageRankDelta(), 11},
	} {
		got := testing.AllocsPerRun(10, func() {
			if _, err := tc.app.Run(pl, cl); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s allocates %.0f per run, want %.0f", tc.app.Name(), got, tc.want)
		}
	}
}

// TestValidateSourcesAllocatesNothing: a full batch of distinct roots is
// checked without a map, and a repeated root is still reported at its first
// pair of indices.
func TestValidateSourcesAllocatesNothing(t *testing.T) {
	sources := make([]graph.VertexID, MaxBatchSources)
	for i := range sources {
		sources[i] = graph.VertexID(3 * i)
	}
	if err := validateSources("batch", 3*MaxBatchSources, sources, MaxBatchSources); err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() {
			_ = validateSources("batch", 3*MaxBatchSources, sources, MaxBatchSources)
		}); n != 0 {
			t.Errorf("validating %d distinct roots allocates %.0f, want 0", len(sources), n)
		}
	}
	// Vertex 9 sits at 3, 5 and 7, vertex 6 at 2 and 6: the first repeat
	// read is vertex 9 at index 5, paired with its first place.
	dup := []graph.VertexID{1, 4, 6, 9, 2, 9, 6, 9}
	err := validateSources("batch", 10, dup, MaxBatchSources)
	if !errors.Is(err, ErrDuplicateSource) || !strings.HasSuffix(err.Error(), "vertex 9 at indices 3 and 5") {
		t.Errorf("duplicate roots: %v, want vertex 9 at indices 3 and 5", err)
	}
}
