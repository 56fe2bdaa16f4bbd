package engine

import (
	"runtime"
	"slices"
	"testing"

	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// TestCompileBlocksParallelMatchesSequential pins the parallel machine-block
// compiler to its sequential path: every field of every machine's layout must
// be identical at any GOMAXPROCS, for both gather directions and both
// groupings, the source grouping fetched through the lazy path a sparse
// superstep takes.
func TestCompileBlocksParallelMatchesSequential(t *testing.T) {
	const n, m, machines = 400, 3200, 7
	g := &graph.Graph{NumVertices: n}
	owner := make([]Machine, 0, m)
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Hash2(91, uint64(i)) % n)
		v := graph.VertexID(rng.Hash2(93, uint64(i)) % n)
		if u == v {
			v = (v + 1) % n
		}
		g.Edges = append(g.Edges, graph.Edge{Src: u, Dst: v})
		owner = append(owner, Machine(rng.Hash2(97, uint64(i))%machines))
	}

	// A fresh placement per worker count, so its lazy compiles run at that
	// count.
	placement := func() *Placement {
		pl, err := NewPlacement(g, owner, machines)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	// The reference compiles every layout now, at one worker; the lazy
	// getters would otherwise build it inside the loop at the loop's count.
	withProcs(t, 1)
	seq := placement()
	seq.blocks(false)
	seq.blocks(true)
	seq.sources()
	if seq.inSources.bySrc == nil {
		t.Fatal("reference source grouping not compiled at one worker")
	}
	for _, shards := range []int{2, 3, 8} {
		withProcs(t, shards)
		pl := placement()
		for _, both := range []bool{false, true} {
			a, b := seq.blocks(both), pl.blocks(both)
			for p := 0; p < machines; p++ {
				if !groupedEqual(a[p].byDst, b[p].byDst) || !both && !groupedEqual(seq.sources()[p], pl.sources()[p]) {
					t.Fatalf("shards=%d both=%v: machine %d blocks differ", shards, both, p)
				}
				if !slices.Equal(a[p].visit, b[p].visit) {
					t.Fatalf("shards=%d both=%v: machine %d visit order differs", shards, both, p)
				}
			}
		}
	}
}

// withProcs sets GOMAXPROCS, which sizes the block compile, for the rest of
// the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func groupedEqual(a, b graph.Grouped) bool {
	if len(a.Keys) != len(b.Keys) || len(a.Offs) != len(b.Offs) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	for i := range a.Offs {
		if a.Offs[i] != b.Offs[i] {
			return false
		}
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}
