package engine

import (
	"math/bits"
	"testing"

	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// benchPowerLaw is the dense-workload input: a power-law proxy graph whose
// hubs stress the destination-grouped sweep.
func benchPowerLaw(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "bench-pl", Vertices: 20000, Edges: 80000, Kind: gen.KindPowerLaw,
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchPowerLawLarge is benchPowerLaw at the size where memory latency
// shows: 2^20 edges over 2^18 vertices.
func benchPowerLawLarge(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "bench-pl-large", Vertices: 1 << 18, Edges: 1 << 20, Kind: gen.KindPowerLaw,
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchRing is the sparse-workload input: a ring with long-range chords, so
// single-source traversal runs a couple of hundred supersteps with a frontier
// far below the hybrid threshold — the regime the worklist sweep targets.
func benchRing(n int) *graph.Graph {
	g := &graph.Graph{Name: "bench-ring", NumVertices: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)})
	}
	for i := 0; i < n; i += 100 {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 97) % n)})
	}
	return g
}

func benchPlacement(b *testing.B, g *graph.Graph) *Placement {
	b.Helper()
	pl, err := NewPlacement(g, moduloOwner(g, 4), 4)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

// unreachedHop is benchSSSPProgram's "no distance yet" sentinel.
const unreachedHop = ^uint32(0)

// benchSSSPProgram is single-source shortest paths over unit weights:
// frontier-driven, GatherBoth, exact min accumulator.
type benchSSSPProgram struct{}

func (benchSSSPProgram) Name() string       { return "bench-sssp" }
func (benchSSSPProgram) Coeffs() CostCoeffs { return rankProgram{}.Coeffs() }
func (benchSSSPProgram) Direction() Direction {
	return GatherBoth
}
func (benchSSSPProgram) ApplyAll() bool     { return false }
func (benchSSSPProgram) MaxSupersteps() int { return 1 << 20 }
func (benchSSSPProgram) Init(vals []uint32, g *graph.Graph) {
	for v := range vals {
		vals[v] = unreachedHop
	}
	vals[0] = 0
}
func (benchSSSPProgram) Fold(acc uint32, has bool, vals []uint32, srcs []graph.VertexID, act []bool) (uint32, int32) {
	best := unreachedHop
	if has {
		best = acc
	}
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		if d := vals[s]; d != unreachedHop {
			best = min(best, d+1)
		}
		n++
	}
	if n == 0 {
		return acc, 0
	}
	return best, n
}
func (benchSSSPProgram) Apply(vs []graph.VertexID, vals []uint32, acc []uint32, has []bool, rt *Runtime, signal []graph.VertexID) []graph.VertexID {
	for _, v := range vs {
		if has[v] && acc[v] < vals[v] {
			vals[v] = acc[v]
			signal = append(signal, v)
		}
	}
	return signal
}

// runGatherBench measures whole executions of run and reports useful-gather
// throughput. Gathers is charged identically by every engine (inactive edges
// never count), so edges/s ratios between the *Reference benchmarks and their
// counterparts are true speedups on the same work.
func runGatherBench[V, A any](b *testing.B, prog Program[V, A], pl *Placement,
	run func(Program[V, A], *Placement) (*Result, []V, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var gathers float64
	for i := 0; i < b.N; i++ {
		res, _, err := run(prog, pl)
		if err != nil {
			b.Fatal(err)
		}
		gathers += res.Gathers
	}
	b.ReportMetric(gathers/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkEngineGatherPageRank(b *testing.B) {
	pl := benchPlacement(b, benchPowerLaw(b))
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[float64, float64](b, rankProgram{}, pl,
		func(p Program[float64, float64], pl *Placement) (*Result, []float64, error) {
			return Run[float64, float64](p, pl, cl, Options{})
		})
}

// BenchmarkEngineGatherPageRankLarge is BenchmarkEngineGatherPageRank at the
// size where memory latency shows: 2^20 edges over 2^18 vertices, 25 to 50
// times the end-to-end benchmark's graphs, spread unevenly over 4 machines,
// its gather layout compiled before the timer starts.
func BenchmarkEngineGatherPageRankLarge(b *testing.B) {
	g := benchPowerLawLarge(b)
	pl, err := NewPlacement(g, hashedOwner(g, 4), 4)
	if err != nil {
		b.Fatal(err)
	}
	pl.blocks(false)
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[float64, float64](b, rankProgram{}, pl,
		func(p Program[float64, float64], pl *Placement) (*Result, []float64, error) {
			return Run[float64, float64](p, pl, cl, Options{})
		})
}

func BenchmarkEngineGatherPageRankReference(b *testing.B) {
	pl := benchPlacement(b, benchPowerLaw(b))
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[float64, float64](b, rankProgram{}, pl,
		func(p Program[float64, float64], pl *Placement) (*Result, []float64, error) {
			return RunReference[float64, float64](p, pl, cl, Options{})
		})
}

func BenchmarkEngineGatherSSSP(b *testing.B) {
	pl := benchPlacement(b, benchRing(20000))
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[uint32, uint32](b, benchSSSPProgram{}, pl,
		func(p Program[uint32, uint32], pl *Placement) (*Result, []uint32, error) {
			return Run[uint32, uint32](p, pl, cl, Options{})
		})
}

func BenchmarkEngineGatherSSSPReference(b *testing.B) {
	pl := benchPlacement(b, benchRing(20000))
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[uint32, uint32](b, benchSSSPProgram{}, pl,
		func(p Program[uint32, uint32], pl *Placement) (*Result, []uint32, error) {
			return RunReference[uint32, uint32](p, pl, cl, Options{})
		})
}

// benchClusterState mirrors the apps package's packed ClusterBFS state (the
// engine cannot import apps): a 64-lane reach word plus per-lane distances.
type benchClusterState struct {
	seen uint64
	dist [64]int32
}

// benchClusterProgram is bit-parallel batched BFS: 64 sources, one bit lane
// each, OR-accumulated reach words. The 264-byte vertex state and the
// word-wide accumulator stress the engines' generic value plumbing in a way
// the scalar benchmarks cannot.
type benchClusterProgram struct{}

func (benchClusterProgram) Name() string         { return "bench-clusterbfs" }
func (benchClusterProgram) Coeffs() CostCoeffs   { return rankProgram{}.Coeffs() }
func (benchClusterProgram) Direction() Direction { return GatherBoth }
func (benchClusterProgram) ApplyAll() bool       { return false }
func (benchClusterProgram) MaxSupersteps() int   { return 1 << 20 }
func (benchClusterProgram) Init(vals []benchClusterState, g *graph.Graph) {
	for v := range vals {
		st := &vals[v]
		for j := range st.dist {
			st.dist[j] = -1
		}
		// Sources spread every 300 vertices across the 20000-vertex inputs.
		if v%300 == 0 && v/300 < 64 {
			st.seen = 1 << uint(v/300)
			st.dist[v/300] = 0
		}
	}
}
func (benchClusterProgram) Fold(acc uint64, has bool, vals []benchClusterState, srcs []graph.VertexID, act []bool) (uint64, int32) {
	var seen uint64
	if has {
		seen = acc
	}
	var n int32
	for _, s := range srcs {
		if act != nil && !act[s] {
			continue
		}
		seen |= vals[s].seen
		n++
	}
	if n == 0 {
		return acc, 0
	}
	return seen, n
}
func (benchClusterProgram) Apply(vs []graph.VertexID, vals []benchClusterState, acc []uint64, has []bool, rt *Runtime, signal []graph.VertexID) []graph.VertexID {
	d := int32(rt.Step) + 1
	for _, v := range vs {
		val := &vals[v]
		fresh := acc[v] &^ val.seen
		if !has[v] || fresh == 0 {
			continue
		}
		val.seen |= fresh
		for m := fresh; m != 0; m &= m - 1 {
			val.dist[bits.TrailingZeros64(m)] = d
		}
		signal = append(signal, v)
	}
	return signal
}

func BenchmarkEngineClusterBFS(b *testing.B) {
	pl := benchPlacement(b, benchRing(20000))
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[benchClusterState, uint64](b, benchClusterProgram{}, pl,
		func(p Program[benchClusterState, uint64], pl *Placement) (*Result, []benchClusterState, error) {
			return Run[benchClusterState, uint64](p, pl, cl, Options{})
		})
}

// benchHopProgram is benchSSSPProgram with the apps package's BFS Fold: an
// inactive source is masked to min's identity instead of branched around,
// unreached offers nothing by a select, and an empty fold hands acc back by
// a select.
type benchHopProgram struct{ benchSSSPProgram }

func (benchHopProgram) Fold(acc uint32, has bool, vals []uint32, srcs []graph.VertexID, act []bool) (uint32, int32) {
	nearest := unreachedHop
	var n uint32
	for _, s := range srcs {
		on := uint32(bit(act == nil || act[s]))
		nearest = min(nearest, vals[s]|(on-1))
		n += on
	}
	best := unreachedHop
	if has {
		best = acc
	}
	offer := nearest + 1
	if nearest == unreachedHop {
		offer = nearest
	}
	best = min(best, offer)
	if n == 0 {
		best = acc
	}
	return best, int32(n)
}

// BenchmarkEngineGatherFrontier is single-source BFS over an 80 k-edge
// power-law graph spread unevenly over 4 machines. Its dense frontier steps
// after the first leave about half the destination groups with nothing to
// fold, in no predictable pattern — the regime of gatherDense's masked
// per-group bookkeeping and the dense step's apply list, which
// BenchmarkEngineGatherPageRank (every group folds) and the SSSP ring (every
// step sparse) do not reach.
func BenchmarkEngineGatherFrontier(b *testing.B) {
	g, err := gen.Generate(gen.Spec{
		Name: "bench-frontier", Vertices: 40000, Edges: 80000, Kind: gen.KindPowerLaw,
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := NewPlacement(g, hashedOwner(g, 4), 4)
	if err != nil {
		b.Fatal(err)
	}
	pl.blocks(true)
	cl := testCluster(b, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	runGatherBench[uint32, uint32](b, benchHopProgram{}, pl,
		func(p Program[uint32, uint32], pl *Placement) (*Result, []uint32, error) {
			return Run[uint32, uint32](p, pl, cl, Options{})
		})
}
