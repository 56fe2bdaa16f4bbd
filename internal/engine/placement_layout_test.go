package engine

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"proxygraph/internal/graph"
)

// inHopsProgram is benchSSSPProgram gathering along in-edges only: a
// frontier-driven GatherIn program, so its supersteps after the first run
// sparse on the ring and read the in-direction source grouping.
type inHopsProgram struct{ benchSSSPProgram }

func (inHopsProgram) Direction() Direction { return GatherIn }

// TestSourceGroupingCompilesOnFirstSparseStep pins when the GatherIn source
// grouping is built: a PageRank run, which applies every vertex every step,
// never builds it; a frontier program builds it on its first sparse step, not
// before, and once per placement; and concurrent sparse runs over one
// placement share that one compile.
func TestSourceGroupingCompilesOnFirstSparseStep(t *testing.T) {
	cl := testCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	ring := benchRing(600)
	placement := func(t *testing.T) *Placement {
		pl, err := NewPlacement(ring, moduloOwner(ring, 4), 4)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	run := func(t *testing.T, prog Program[uint32, uint32], pl *Placement) []uint32 {
		t.Helper()
		_, vals, err := Run(prog, pl, cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	built := func(pl *Placement) bool { return pl.inSources.bySrc != nil }

	t.Run("pagerank", func(t *testing.T) {
		pl := placement(t)
		if _, _, err := Run[float64, float64](rankProgram{}, pl, cl, Options{}); err != nil {
			t.Fatal(err)
		}
		if pl.compiled[0].blocks == nil || built(pl) {
			t.Fatalf("after a PageRank run: destination grouping built %v, source grouping built %v; want true, false",
				pl.compiled[0].blocks != nil, built(pl))
		}
	})

	t.Run("first sparse step", func(t *testing.T) {
		pl := placement(t)
		// Superstep 0 gathers from every vertex, so it runs dense.
		run(t, stepsProgram[uint32, uint32]{inHopsProgram{}, 1}, pl)
		if built(pl) {
			t.Fatal("a run of one dense superstep built the source grouping")
		}
		want := run(t, inHopsProgram{}, pl)
		if !built(pl) {
			t.Fatal("a run with sparse supersteps left the source grouping unbuilt")
		}
		first := pl.inSources.bySrc
		if got := run(t, inHopsProgram{}, pl); !slices.Equal(got, want) {
			t.Fatal("a second run on the compiled grouping computed different hops")
		}
		if !sameGroupings(pl.inSources.bySrc, first) {
			t.Fatal("a second sparse run rebuilt the source grouping")
		}
		if pl.compiled[1].blocks != nil {
			t.Fatal("GatherIn runs compiled a GatherBoth layout")
		}
	})

	t.Run("concurrent runs", func(t *testing.T) {
		want := run(t, inHopsProgram{}, placement(t))
		pl := placement(t)
		const runs = 8
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			vals  [runs][]uint32
			errs  [runs]error
			seen  [runs][]graph.Grouped
		)
		// Half the goroutines ask for the grouping before their run, half
		// after, so callers of sources race runs' first sparse steps.
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if i%2 == 0 {
					seen[i] = pl.sources()
				}
				_, vals[i], errs[i] = Run[uint32, uint32](inHopsProgram{}, pl, cl, Options{})
				if i%2 == 1 {
					seen[i] = pl.sources()
				}
			}()
		}
		close(start)
		wg.Wait()
		for i := 0; i < runs; i++ {
			if errs[i] != nil {
				t.Fatalf("concurrent run %d: %v", i, errs[i])
			}
			if !slices.Equal(vals[i], want) {
				t.Fatalf("concurrent run %d computed different hops", i)
			}
			if !sameGroupings(seen[i], pl.inSources.bySrc) {
				t.Fatalf("concurrent caller %d got a source grouping of its own", i)
			}
		}
	})
}

// sameGroupings reports whether a and b are one compile's result: the same
// slice of machines, so every key and record array is shared too.
func sameGroupings(a, b []graph.Grouped) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestFootprintBoundCoversCompiledPlacement pins FootprintBound, a cache's
// byte budget input, at or above what a placement holds once all four lazily
// built structures exist — the LocalEdges index and the three gather layouts,
// the capacity bytes of every slice it owns, slice headers included — and
// within 1.5x of it, so a budget is not spent on bytes nobody holds.
func TestFootprintBoundCoversCompiledPlacement(t *testing.T) {
	header := int64(unsafe.Sizeof([]int32(nil)))
	grouped := func(g graph.Grouped) int64 {
		return 4 * int64(cap(g.Keys)+cap(g.Offs)+cap(g.Vals))
	}
	capBytes := func(pl *Placement) int64 {
		n := int64(unsafe.Sizeof(Machine(0)))*int64(cap(pl.EdgeOwner)+cap(pl.Master)) + 8*int64(cap(pl.ReplicaMask))
		local := pl.LocalEdges()
		n += header * int64(cap(local)+cap(pl.MasterVerts))
		for p := range local {
			n += 4 * int64(cap(local[p])+cap(pl.MasterVerts[p]))
		}
		for _, both := range []bool{false, true} {
			blocks := pl.blocks(both)
			n += int64(cap(blocks)) * int64(unsafe.Sizeof(machineBlocks{}))
			for p := range blocks {
				n += grouped(blocks[p].byDst) + int64(cap(blocks[p].visit))
			}
		}
		bySrc := pl.sources()
		n += int64(cap(bySrc)) * int64(unsafe.Sizeof(graph.Grouped{}))
		for p := range bySrc {
			n += grouped(bySrc[p])
		}
		return n
	}
	big := testGraph(5, 2000, 16000)
	big.Name = "random-16k"
	for _, g := range append(specGraphs(), big) {
		for _, machines := range []int{1, 3, 4, 64} {
			pl, err := NewPlacement(g, hashedOwner(g, machines), machines)
			if err != nil {
				t.Fatalf("%s on %d machines: %v", g.Name, machines, err)
			}
			held, bound := capBytes(pl), pl.FootprintBound()
			t.Logf("%s on %d machines: %d B held, bound %d B (%.2fx)", g.Name, machines, held, bound, float64(bound)/float64(held))
			if bound < held || float64(bound) > 1.5*float64(held) {
				t.Errorf("%s on %d machines: FootprintBound %d B, want within [1, 1.5]x the %d B the compiled placement holds", g.Name, machines, bound, held)
			}
		}
	}
}
