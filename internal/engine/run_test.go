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
// partition's TestIngressAllocs): the superstep loop, its scratch, the
// frontier and the accountant cost nothing per superstep, in Run and in
// RunReference alike, so a longer run only adds Run's amortised worklist
// doublings.
//
// Ceilings are what Run measured once the accountant stopped keeping a
// per-step record (the sequential loop it replaced measured 27 and 69):
//
//	rank, 8 supersteps, 6000-vertex random graph:       16
//	unit-weight SSSP, 30 supersteps, 6000-vertex ring:  27
//
// The sparse steps' dirty list shares the dense steps' |V|-sized apply list,
// so it never grows.
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
		checkRunAllocs[float64, float64](t, rankProgram{}, densePl, cl, 8, 16)
	})
	t.Run("sssp", func(t *testing.T) {
		checkRunAllocs[uint32, uint32](t, benchSSSPProgram{}, ringPl, cl, 30, 27)
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
		t.Errorf("Run allocates %.0f per run, the guard allows %.0f", got, ceiling)
	}
	// A per-superstep allocation would add 20 over the 20 extra steps. Run's
	// only growth is its two frontiers' worklists doubling as a sparse
	// frontier widens, twice each on the ring; RunReference keeps bitmaps.
	for _, e := range []struct {
		name  string
		run   func(Program[V, A], *Placement, *cluster.Cluster, Options) (*Result, []V, error)
		slack float64
	}{{"Run", Run[V, A], 4}, {"RunReference", RunReference[V, A], 0}} {
		growth := allocs(25, e.run) - allocs(5, e.run)
		t.Logf("%s, 5 -> 25 supersteps: %+.0f allocations", e.name, growth)
		if growth > e.slack {
			t.Errorf("20 more supersteps cost %s %.0f more allocations (allowed %.0f): something allocates per superstep", e.name, growth, e.slack)
		}
	}
}

// TestAccountantAllocs pins the charging methods to zero allocations: the
// per-machine step times live in one buffer the accountant reuses.
func TestAccountantAllocs(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.8xlarge")
	a := NewAccountant(cl, CostCoeffs{OpsPerGather: 10, BytesPerGather: 10, AccumBytes: 8})
	counters := []StepCounters{{Gathers: 4e6, PartialsOut: 10}, {Gathers: 2e6}}
	charges := []struct {
		name   string
		charge func()
	}{
		{"Superstep", func() { a.Superstep(counters) }},
		{"Async", func() { a.Async(counters) }},
		{"Stall", func() { a.Stall(1e-3, "checkpoint") }},
	}
	for _, c := range charges {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, c.charge); got != 0 {
				t.Errorf("%s allocates %.0f times per call, want 0", c.name, got)
			}
		})
	}
}
