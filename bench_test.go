package proxygraph

// Benchmark harness: BenchmarkExperiments runs one sub-benchmark per entry of
// exp.Catalog() — every table and figure of the paper's evaluation, the
// DESIGN.md ablations and the extension studies. Each regenerates its
// experiment at the default scale (1/64 of Table II) and prints the resulting
// tables once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's entire evaluation section, and
// go test -bench 'Experiments/fig9$' one experiment. cmd/bench offers the same
// catalog with a -scale flag for full-size runs.

import (
	"fmt"
	"sync"
	"testing"

	"proxygraph/internal/exp"
)

// benchLab is shared across benchmarks so graphs, proxies and CCR pools are
// generated once, as in the paper's one-time offline profiling.
var benchLab = sync.OnceValue(func() *exp.Lab {
	return exp.NewLab(exp.DefaultConfig())
})

// printOnce guards each experiment's table output.
var printOnce sync.Map

func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Catalog() {
		b.Run(e.Name, func(b *testing.B) {
			lab := benchLab()
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(lab)
				if err != nil {
					b.Fatal(err)
				}
				if _, printed := printOnce.LoadOrStore(e.Name, true); printed {
					continue
				}
				for _, t := range tables {
					fmt.Printf("\n%s\n", t)
				}
			}
		})
	}
}

// BenchmarkEndToEnd measures the full proxy-guided pipeline (profile once,
// partition, execute) for each application on the Case 2 cluster — the
// library's primary user-facing path.
func BenchmarkEndToEnd(b *testing.B) {
	cl, err := NewCluster(LocalXeon("xeon-4c", 4, 2.5), LocalXeon("xeon-12c", 12, 2.5))
	if err != nil {
		b.Fatal(err)
	}
	profiler, err := NewProxyProfiler(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := BuildPool(cl, Apps(), profiler)
	if err != nil {
		b.Fatal(err)
	}
	g, err := Generate(Spec{Name: "bench", Vertices: 50000, Edges: 600000, Kind: KindPowerLaw}, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, app := range Apps() {
		b.Run(app.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunPooled(app, g, cl, NewHybrid(), pool, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SimSeconds, "sim-s/op")
			}
		})
	}
}
