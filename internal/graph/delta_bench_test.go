package graph_test

import (
	"testing"

	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// BenchmarkDeltaApply materializes one evolve step the size of the end-to-end
// benchmark's cold_ingest batches: a power-law graph of about 27 k edges with
// 1 % of its edges inserted and 0.5 % deleted. make check runs it once so it
// keeps compiling; timing claims go through benchmark/ and make bench-compare.
func BenchmarkDeltaApply(b *testing.B) {
	base, err := gen.Generate(gen.Spec{
		Name: "delta-bench", Vertices: 3400, Edges: 27000, Kind: gen.KindPowerLaw,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := gen.RandomDelta(base, gen.DeltaSpec{
		Inserts: len(base.Edges) / 100, Deletes: len(base.Edges) / 200, Time: 1,
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var evolved *graph.Graph
	for i := 0; i < b.N; i++ {
		if evolved, err = d.Apply(base); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(base.Edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	if want := len(base.Edges) - len(d.Deletes) + len(d.Inserts); len(evolved.Edges) != want {
		b.Fatalf("evolved graph has %d edges, want %d", len(evolved.Edges), want)
	}
}
