package engine

import (
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
)

func TestRunSyncParallelShardedMatchesSequential(t *testing.T) {
	g := testGraph(31, 120, 1200)
	pl, err := NewPlacement(g, moduloOwner(g, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge")
	checkEngines[float64, float64](t, "rank", rankProgram{}, pl, cl, 2, 3, 4, 7)
}

func TestRunSyncParallelShardedFrontier(t *testing.T) {
	g := testGraph(32, 120, 800)
	pl, err := NewPlacement(g, moduloOwner(g, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge")
	// More workers than vertices clamps to one vertex per shard.
	checkEngines[uint32, uint32](t, "min", minProgram{}, pl, cl, 2, 4, 500)
}

func TestShardBoundsCoverAndBalance(t *testing.T) {
	g := testGraph(33, 60, 400)
	owner := moduloOwner(g, 3)
	pl, err := NewPlacement(g, owner, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocks := pl.blocks(false)
	prefix := gatherPrefix(blocks, g.NumVertices)
	for _, w := range []int{1, 2, 5} {
		b := cutBounds(prefix, w)
		if len(b) != w+1 {
			t.Fatalf("w=%d: got %d bounds", w, len(b))
		}
		if b[0] != 0 || b[w] != graph.VertexID(g.NumVertices) {
			t.Fatalf("w=%d: bounds %v do not cover [0,%d)", w, b, g.NumVertices)
		}
		for i := 1; i <= w; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("w=%d: bounds not ascending: %v", w, b)
			}
		}
	}
}

// stepsProgram caps an inner program's superstep count.
type stepsProgram[V, A any] struct {
	Program[V, A]
	steps int
}

func (p stepsProgram[V, A]) MaxSupersteps() int { return p.steps }

// TestRunAllocs is the engine's allocation guard (the counterpart of
// partition's TestIngressAllocs). It pins what folding the sequential loop
// into the sharded one depends on: at one worker the phase tasks, the shard
// scratch and the frontier cost nothing per superstep, so Run allocates no
// more than the sequential loop it replaced, and a longer run only adds the
// accountant's own per-step records — the growth RunReference shows — plus
// the odd amortised worklist doubling.
//
// Ceilings are what the sequential loop measured at the parent commit
// (0ff25a2) on the same inputs; the sharded loop at one shard measured 95 and
// 295 there. Run at one worker measures the value in parentheses:
//
//	rank, 8 supersteps, 6000-vertex random graph:       27 (27)
//	unit-weight SSSP, 30 supersteps, 6000-vertex ring:  69 (68)
func TestRunAllocs(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	dense := testGraph(41, 6000, 48000)
	densePl, err := NewPlacement(dense, moduloOwner(dense, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	ring := benchRing(6000) // ~30 supersteps of sparse frontier
	ringPl, err := NewPlacement(ring, moduloOwner(ring, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	ringPl.blocks(true) // compile the both-direction blocks outside the measurement

	t.Run("rank", func(t *testing.T) {
		checkRunAllocs[float64, float64](t, rankProgram{}, densePl, cl, 8, 27)
	})
	t.Run("sssp", func(t *testing.T) {
		checkRunAllocs[uint32, uint32](t, benchSSSPProgram{}, ringPl, cl, 30, 69)
	})
	// RunReference folds one source per call through a scratch slice it
	// allocates once: Fold is an interface call, its arguments escape, and a
	// slice literal per call would be one heap object per edge.
	t.Run("reference", func(t *testing.T) {
		thin := testGraph(41, 6000, 12000)
		thinPl, err := NewPlacement(thin, moduloOwner(thin, 4), 4)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(pl *Placement) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, _, err := RunReference[float64, float64](rankProgram{}, pl, cl, Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(thinPl), allocs(densePl); many != few {
			t.Errorf("RunReference allocates %.0f times over 12000 edges but %.0f over 48000: something allocates per edge", few, many)
		}
	})
}

func checkRunAllocs[V, A any](t *testing.T, prog Program[V, A], pl *Placement, cl *cluster.Cluster, steps int, ceiling float64) {
	allocs := func(steps int, run func(Program[V, A], *Placement, *cluster.Cluster, Options) (*Result, []V, error)) float64 {
		capped := stepsProgram[V, A]{prog, steps}
		return testing.AllocsPerRun(5, func() {
			if res, _, err := run(capped, pl, cl, Options{Workers: 1}); err != nil || res.Supersteps != steps {
				t.Fatalf("run of %d supersteps: %v, %v", steps, res, err)
			}
		})
	}
	got := allocs(steps, Run[V, A])
	t.Logf("Run{Workers: 1}, %d supersteps: %.0f allocations", steps, got)
	if got > ceiling {
		t.Errorf("Run{Workers: 1} allocates %.0f per run, the parent's sequential loop measured %.0f", got, ceiling)
	}
	growth := allocs(25, Run[V, A]) - allocs(5, Run[V, A])
	refGrowth := allocs(25, RunReference[V, A]) - allocs(5, RunReference[V, A])
	// A per-superstep allocation would add at least 20 over the 20 extra steps.
	if growth-refGrowth >= 10 {
		t.Errorf("20 more supersteps cost Run %.0f more allocations but RunReference %.0f: something allocates per superstep", growth, refGrowth)
	}
}
