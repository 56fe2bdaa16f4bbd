package partition

import (
	"runtime"
	"testing"

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
