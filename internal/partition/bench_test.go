package partition

import (
	"testing"

	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// Ingress micro-benchmarks. Each hash-based partitioner runs two ways over
// the same graph and shares: the sequential executable spec from reference.go
// (naive per-edge binary search) and the production path (quantized picker +
// scans sharded over GOMAXPROCS, so cores come from go test -cpu). The
// differential test pins both to identical owner vectors, so edges/s ratios
// are true speedups on the same work. make check runs every benchmark for one
// iteration to keep them compiling and reporting; host-time claims go through
// benchmark/ and make bench-compare.

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "ingress-bench", Vertices: 100000, Edges: 1600000, Kind: gen.KindPowerLaw,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func runIngressBench(b *testing.B, g *graph.Graph, run func() []int32) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if owner := run(); len(owner) != len(g.Edges) {
			b.Fatal("partitioner dropped edges")
		}
	}
	b.ReportMetric(float64(len(g.Edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func benchVariants(b *testing.B, g *graph.Graph, reference func() []int32, production func() []int32) {
	b.Helper()
	b.Run("reference", func(b *testing.B) { runIngressBench(b, g, reference) })
	b.Run("production", func(b *testing.B) { runIngressBench(b, g, production) })
}

func BenchmarkIngressRandom(b *testing.B) {
	g := benchGraph(b)
	shares := UniformShares(8)
	p := NewRandomHash()
	benchVariants(b, g,
		func() []int32 { return referenceRandom(g, shares, 1) },
		func() []int32 {
			owner, err := p.Partition(g, shares, 1)
			if err != nil {
				b.Fatal(err)
			}
			return owner
		})
}

func BenchmarkIngressHybrid(b *testing.B) {
	g := benchGraph(b)
	shares := UniformShares(8)
	p := NewHybrid()
	benchVariants(b, g,
		func() []int32 { return referenceHybrid(p, g, shares, 1) },
		func() []int32 {
			owner, err := p.Partition(g, shares, 1)
			if err != nil {
				b.Fatal(err)
			}
			return owner
		})
}

func BenchmarkIngressGinger(b *testing.B) {
	g := benchGraph(b)
	shares := UniformShares(8)
	p := NewGinger()
	benchVariants(b, g,
		func() []int32 { return referenceGinger(p, g, shares, 1) },
		func() []int32 {
			owner, err := p.Partition(g, shares, 1)
			if err != nil {
				b.Fatal(err)
			}
			return owner
		})
}
