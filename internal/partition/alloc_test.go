package partition

import (
	"runtime"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// Allocation guards for the ingress hot paths. The budgets are deliberately
// loose multiples of the measured steady state (pools warm, which
// allocsPerRun's warm-up call guarantees) so they only trip on a regression
// class — a per-edge, per-vertex or per-window allocation sneaking back in —
// not on incidental churn. Ginger's sweep allocated ~200k times per call
// (per-row sort.Slice inside the sorted CSR build) before the pooled unsorted
// CSR; the sequential streams and grid allocate their state arrays and
// nothing else (measured 3, 5 and 12 at eight machines).
const (
	randomAllocBudget = 200
	hybridAllocBudget = 200
	gingerAllocBudget = 200
	streamAllocBudget = 16
)

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin, which
// would measure every row at one worker whatever withProcs had set.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func allocGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "alloc", Vertices: 20000, Edges: 160000, Kind: gen.KindPowerLaw,
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIngressAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets only hold in normal builds")
	}
	g := allocGraph(t)
	shares := UniformShares(8)
	cases := []struct {
		name   string
		budget float64
		p      Partitioner
	}{
		{"random", randomAllocBudget, NewRandomHash()},
		{"hybrid", hybridAllocBudget, NewHybrid()},
		{"ginger", gingerAllocBudget, NewGinger()},
		{"oblivious", streamAllocBudget, NewOblivious()},
		{"hdrf", streamAllocBudget, NewHDRF()},
		{"grid", streamAllocBudget, NewGrid()},
	}
	for _, procs := range []int{1, 8} {
		withProcs(t, procs)
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				avg := allocsPerRun(5, func() {
					if _, err := c.p.Partition(g, shares, 7); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s procs=%d: %.0f allocs/op", c.name, procs, avg)
				if avg > c.budget {
					t.Errorf("%s procs=%d: %.0f allocs/op exceeds budget %.0f",
						c.name, procs, avg, c.budget)
				}
			})
		}
	}
}

// TestHybridShardedBytesRegression pins the fix for the sharded ingress
// memory blowup: hybrid at 8 workers used to allocate a fresh workers×|V|
// count matrix inside the parallel in-degree scan (9.6MB/op vs 6.8MB at one
// worker). With the pooled degree scratch the sharded path must stay within
// a small factor of the single-worker bytes.
func TestHybridShardedBytesRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews bytes/op")
	}
	if testing.Short() {
		t.Skip("benchmarks under -short")
	}
	g := allocGraph(t)
	shares := UniformShares(8)
	h := NewHybrid()
	run := func(procs int) testing.BenchmarkResult {
		withProcs(t, procs)
		// Warm the degree-scratch pool so the measurement sees steady state.
		if _, err := h.Partition(g, shares, 7); err != nil {
			t.Fatal(err)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.Partition(g, shares, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	one := run(1)
	eight := run(8)
	b1, b8 := one.AllocedBytesPerOp(), eight.AllocedBytesPerOp()
	t.Logf("hybrid bytes/op: procs1=%d procs8=%d", b1, b8)
	if b1 == 0 {
		t.Fatal("no bytes measured at one worker")
	}
	if ratio := float64(b8) / float64(b1); ratio > 1.15 {
		t.Errorf("sharded hybrid allocates %.2fx the single-worker bytes (%d vs %d); scratch is no longer pooled",
			ratio, b8, b1)
	}
}

// bytesPerRun is allocsPerRun for bytes: the average TotalAlloc growth of one
// call of f after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestIngressBytes pins what the hash ingresses allocate per call at one
// worker, after a warm-up call, to what they must: the owner vector they
// return, one byte per edge, and for Hybrid.Amend 32 B per delta edge for
// degreeFlips' map, plus 16 KiB for the picker and small state. Hybrid's
// in-degrees go back to the degree-scratch pool on return, so a warm call
// pays nothing per vertex. A four-byte machine id would add 3 B per edge and
// fail every row.
func TestIngressBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews bytes/op")
	}
	withProcs(t, 1)
	g := allocGraph(t)
	shares := UniformShares(8)
	d, err := gen.RandomDelta(g, gen.DeltaSpec{
		Inserts: len(g.Edges) / 100, Deletes: len(g.Edges) / 200, Time: 1,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHybrid()
	owner, err := h.Partition(g, shares, 7)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 16 << 10
	edges := len(g.Edges)
	cases := []struct {
		name    string
		ceiling int
		run     func() ([]engine.Machine, error)
	}{
		{"hybrid", edges + slack, func() ([]engine.Machine, error) {
			return h.Partition(g, shares, 7)
		}},
		{"random", edges + slack, func() ([]engine.Machine, error) {
			return NewRandomHash().Partition(g, shares, 7)
		}},
		{"hybrid-amend", len(evolved.Edges) + 32*d.Size() + slack, func() ([]engine.Machine, error) {
			return h.Amend(g, owner, d, evolved, shares, 7)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := bytesPerRun(5, func() {
				if _, err := c.run(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %d bytes per call, ceiling %d", c.name, got, c.ceiling)
			if got > uint64(c.ceiling) {
				t.Errorf("%s allocates %d bytes per call, want at most %d", c.name, got, c.ceiling)
			}
		})
	}
}
