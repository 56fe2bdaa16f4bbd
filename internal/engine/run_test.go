package engine

import (
	"runtime"
	"slices"
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
// RunReference alike, so a longer run allocates exactly as often as a short
// one.
//
// Ceilings are what Run measured once it kept one frontier with a
// |V|-capacity worklist and the accountant carved its per-machine slices from
// one allocation (two frontiers, a separate signal list and six accountant
// allocations measured 16 and 27):
//
//	rank, 8 supersteps, 6000-vertex random graph:       12
//	unit-weight SSSP, 30 supersteps, 6000-vertex ring:  14
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
		checkRunAllocs[float64, float64](t, rankProgram{}, densePl, cl, 8, 12)
	})
	t.Run("sssp", func(t *testing.T) {
		checkRunAllocs[uint32, uint32](t, benchSSSPProgram{}, ringPl, cl, 30, 14)
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
	// A per-superstep allocation would add 20 over the 20 extra steps. No
	// list grows either: Run's frontier worklist is allocated at |V|
	// capacity, so a widening sparse frontier never doubles it, and
	// RunReference keeps bitmaps.
	for _, e := range []struct {
		name string
		run  func(Program[V, A], *Placement, *cluster.Cluster, Options) (*Result, []V, error)
	}{{"Run", Run[V, A]}, {"RunReference", RunReference[V, A]}} {
		growth := allocs(25, e.run) - allocs(5, e.run)
		t.Logf("%s, 5 -> 25 supersteps: %+.0f allocations", e.name, growth)
		if growth > 0 {
			t.Errorf("20 more supersteps cost %s %.0f more allocations: something allocates per superstep", e.name, growth)
		}
	}
}

// TestRunBytes bounds what one run of a frontier program allocates:
// (sizeof V + sizeof A + 15) bytes per vertex — vals, acc, has, the
// frontier's bitmap and |V|-capacity worklist, the apply list and the sparse
// gather's touched and contribs — plus 16 KiB for the per-machine state. A
// second |V|-byte bitmap breaks it. |V| is a multiple of the 8 KiB page, so
// no large array is rounded up.
func TestRunBytes(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	const n = 64 << 10
	ring := benchRing(n)
	pl, err := NewPlacement(ring, moduloOwner(ring, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := stepsProgram[uint32, uint32]{benchSSSPProgram{}, 30}
	run := func() {
		if res, _, err := Run[uint32, uint32](prog, pl, cl, Options{}); err != nil || res.Supersteps != 30 {
			t.Fatalf("run of 30 supersteps: %v, %v", res, err)
		}
	}
	run() // compile the placement's layouts outside the measurement

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	const perVertex = 4 + 4 + 15 // uint32 vals and acc
	const ceiling = perVertex*n + 16<<10
	t.Logf("%d vertices, 30 supersteps: %d bytes per run (%.2f per vertex)", n, got, float64(got)/n)
	if got > ceiling {
		t.Errorf("Run allocates %d bytes per run over %d vertices, want at most %d·|V| + 16 KiB = %d", got, n, perVertex, ceiling)
	}
}

// TestAccountantAllocs pins the charging methods to zero allocations: the
// per-machine step times live in one buffer the accountant reuses. Building
// one costs two: the accountant and the buffer its five per-machine slices
// share.
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
	t.Run("NewAccountant", func(t *testing.T) {
		var sink *Accountant
		if got := testing.AllocsPerRun(100, func() { sink = NewAccountant(cl, CostCoeffs{}) }); got > 2 {
			t.Errorf("NewAccountant allocates %.0f times, want at most 2", got)
		}
		_ = sink
	})
}

// TestAccountantSlicesCapped: the per-machine slices share one buffer, so
// each must end at its own capacity — appending to a result's BusySeconds
// must not overwrite its CommBytes.
func TestAccountantSlicesCapped(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.8xlarge")
	a := NewAccountant(cl, CostCoeffs{OpsPerGather: 10, BytesPerGather: 10, AccumBytes: 8})
	a.Superstep([]StepCounters{{Gathers: 4e6, PartialsOut: 10}, {Gathers: 2e6}})
	res := a.Finish("p", "g", nil)
	comm := slices.Clone(res.CommBytes)
	_ = append(res.BusySeconds, -1, -1)
	if !slices.Equal(res.CommBytes, comm) {
		t.Fatalf("appending to BusySeconds changed CommBytes from %v to %v", comm, res.CommBytes)
	}
}
