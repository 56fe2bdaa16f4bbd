package partition

import (
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// Ingress micro-benchmarks. Each partitioner with an executable spec runs
// two ways over the same graph and shares: the sequential spec from
// reference_test.go (naive per-edge binary search, straight-line streams) and
// the production path (quantized picker, hash scans sharded over GOMAXPROCS so
// cores come from go test -cpu, streams over cheaper state). The differential
// test pins both to identical owner vectors, so edges/s ratios are true
// speedups on the same work. make check runs every benchmark for one
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

func runIngressBench(b *testing.B, g *graph.Graph, run func() []engine.Machine) {
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

func benchVariants(b *testing.B, g *graph.Graph, reference func() []engine.Machine, production func() []engine.Machine) {
	b.Helper()
	b.Run("reference", func(b *testing.B) { runIngressBench(b, g, reference) })
	b.Run("production", func(b *testing.B) { runIngressBench(b, g, production) })
}

func BenchmarkIngressRandom(b *testing.B) {
	g := benchGraph(b)
	shares := UniformShares(8)
	p := NewRandomHash()
	benchVariants(b, g,
		func() []engine.Machine { return referenceRandom(g, shares, 1) },
		func() []engine.Machine {
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
		func() []engine.Machine { return referenceHybrid(p, g, shares, 1) },
		func() []engine.Machine {
			owner, err := p.Partition(g, shares, 1)
			if err != nil {
				b.Fatal(err)
			}
			return owner
		})
}

// BenchmarkAmend amends each amending partitioner's placement across one
// evolve step the size of the end-to-end benchmark's cold_ingest batches: a
// power-law graph of about 27 k edges, 1 % of its edges inserted and 0.5 %
// deleted. Only hybrid amends in a benchmark workload.
func BenchmarkAmend(b *testing.B) {
	base, err := gen.Generate(gen.Spec{
		Name: "amend-bench", Vertices: 3400, Edges: 27000, Kind: gen.KindPowerLaw,
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
	evolved, err := d.Apply(base)
	if err != nil {
		b.Fatal(err)
	}
	shares := UniformShares(4)
	for _, p := range []Amender{NewHybrid(), NewOblivious(), NewHDRF(), NewGinger()} {
		owner, err := p.Partition(base, shares, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name(), func(b *testing.B) {
			runIngressBench(b, evolved, func() []engine.Machine {
				amended, err := p.Amend(base, owner, d, evolved, shares, 1)
				if err != nil {
					b.Fatal(err)
				}
				return amended
			})
		})
	}
}

func BenchmarkIngressOblivious(b *testing.B) {
	g := benchGraph(b)
	shares := UniformShares(8)
	p := NewOblivious()
	benchVariants(b, g,
		func() []engine.Machine { return referenceOblivious(g, shares) },
		func() []engine.Machine {
			owner, err := p.Partition(g, shares, 1)
			if err != nil {
				b.Fatal(err)
			}
			return owner
		})
}

func BenchmarkIngressHDRF(b *testing.B) {
	g := benchGraph(b)
	shares := UniformShares(8)
	p := NewHDRF()
	benchVariants(b, g,
		func() []engine.Machine { return referenceHDRF(p, g, shares, 1) },
		func() []engine.Machine {
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
		func() []engine.Machine { return referenceGinger(p, g, shares, 1) },
		func() []engine.Machine {
			owner, err := p.Partition(g, shares, 1)
			if err != nil {
				b.Fatal(err)
			}
			return owner
		})
}
