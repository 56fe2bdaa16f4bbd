package engine

import (
	"testing"

	"proxygraph/internal/cluster"
)

// stepsProgram caps an inner program's superstep count.
type stepsProgram[V, A any] struct {
	Program[V, A]
	steps int
}

func (p stepsProgram[V, A]) MaxSupersteps() int { return p.steps }

// TestRunAllocs is the engine's allocation guard (the counterpart of
// partition's TestIngressAllocs): the superstep loop, its scratch and the
// frontier cost nothing per superstep, so a longer run only adds the
// accountant's own per-step records — the growth RunReference shows — plus
// the odd amortised worklist doubling.
//
// Ceilings are what the sequential loop measured at commit 0ff25a2 on the same
// inputs; Run measures the value in parentheses:
//
//	rank, 8 supersteps, 6000-vertex random graph:       27 (27)
//	unit-weight SSSP, 30 supersteps, 6000-vertex ring:  69 (62)
//
// The sparse steps' dirty list shares the dense steps' |V|-sized apply list,
// so it never grows; the SSSP count measured 68 while it did.
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
			if res, _, err := run(capped, pl, cl, Options{}); err != nil || res.Supersteps != steps {
				t.Fatalf("run of %d supersteps: %v, %v", steps, res, err)
			}
		})
	}
	got := allocs(steps, Run[V, A])
	t.Logf("Run, %d supersteps: %.0f allocations", steps, got)
	if got > ceiling {
		t.Errorf("Run allocates %.0f per run, the sequential loop measured %.0f", got, ceiling)
	}
	growth := allocs(25, Run[V, A]) - allocs(5, Run[V, A])
	refGrowth := allocs(25, RunReference[V, A]) - allocs(5, RunReference[V, A])
	// A per-superstep allocation would add at least 20 over the 20 extra steps.
	if growth-refGrowth >= 10 {
		t.Errorf("20 more supersteps cost Run %.0f more allocations but RunReference %.0f: something allocates per superstep", growth, refGrowth)
	}
}
