package engine_test

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
)

// TestLocalEdgesBuiltOnFirstWalk pins who pays for a placement's LocalEdges
// index. Engine programs (PageRank, Connected Components), SSSP, ingress
// pricing and the edge counts never build it, each alone on a fresh placement
// and SSSP after a BFS too; the walkers (Triangle Count, RunReference) build
// it on their first run and every later walker, however many run at once,
// shares that one build. The index itself is the stable group-by-owner of the
// edge stream, laid out machine after machine in one arena in which no
// machine's list can grow into its neighbour's, and EdgeCounts agrees with it.
func TestLocalEdgesBuiltOnFirstWalk(t *testing.T) {
	cl := engine.ClusterOf(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge", "c4.xlarge")
	g := engine.SpecGraphs()[0]
	place := func(t *testing.T) *engine.Placement {
		t.Helper()
		pl, err := engine.NewPlacement(g, engine.HashedOwner(g, cl.Size()), cl.Size())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	run := func(app apps.App) func(*engine.Placement, *cluster.Cluster) error {
		return func(pl *engine.Placement, cl *cluster.Cluster) error {
			_, err := apps.Run(app, pl, cl, engine.Options{})
			return err
		}
	}
	reference := func(pl *engine.Placement, cl *cluster.Cluster) error {
		_, _, err := engine.RunReference[uint32, uint32](apps.NewConnectedComponents(), pl, cl, engine.Options{})
		return err
	}
	ingress := func(pl *engine.Placement, cl *cluster.Cluster) error {
		_, err := engine.Ingress(pl, cl)
		pl.EdgeCounts()
		return err
	}

	t.Run("engine programs and sssp leave it unbuilt", func(t *testing.T) {
		for _, w := range []struct {
			name string
			walk func(*engine.Placement, *cluster.Cluster) error
		}{
			{"pagerank", run(apps.NewPageRank())},
			{"connected_components", run(apps.NewConnectedComponents())},
			{"sssp", run(apps.NewSSSP())},
			{"ingress", ingress},
		} {
			pl := place(t)
			if err := w.walk(pl, cl); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if engine.LocalEdgesBuilt(pl) {
				t.Fatalf("%s built the LocalEdges index", w.name)
			}
		}
	})

	t.Run("sssp after bfs leaves it unbuilt", func(t *testing.T) {
		pl := place(t)
		for _, walk := range []func(*engine.Placement, *cluster.Cluster) error{run(apps.NewBFS()), run(apps.NewSSSP())} {
			if err := walk(pl, cl); err != nil {
				t.Fatal(err)
			}
		}
		if engine.LocalEdgesBuilt(pl) {
			t.Fatal("after BFS then SSSP the LocalEdges index is built")
		}
	})

	walkers := []struct {
		name string
		walk func(*engine.Placement, *cluster.Cluster) error
	}{
		{"triangle_count", run(apps.NewTriangleCount())},
		{"reference", reference},
	}
	for _, w := range walkers {
		t.Run(w.name+" builds it once", func(t *testing.T) {
			pl := place(t)
			if err := w.walk(pl, cl); err != nil {
				t.Fatal(err)
			}
			if !engine.LocalEdgesBuilt(pl) {
				t.Fatal("the walk left the LocalEdges index unbuilt")
			}
			built := pl.LocalEdges()
			for _, other := range walkers {
				if err := other.walk(pl, cl); err != nil {
					t.Fatalf("then %s: %v", other.name, err)
				}
				if !sameIndex(pl.LocalEdges(), built) {
					t.Fatalf("then %s built the index again", other.name)
				}
			}
		})
	}

	t.Run("concurrent callers share one build", func(t *testing.T) {
		pl := place(t)
		const callers = 8
		got := make([][][]int32, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = pl.LocalEdges()
			}()
		}
		close(start)
		wg.Wait()
		for i := range got {
			if !sameIndex(got[i], got[0]) {
				t.Fatalf("caller %d got an index of its own", i)
			}
		}
	})

	t.Run("group-by-owner spec", func(t *testing.T) {
		for _, g := range engine.SpecGraphs() {
			for _, machines := range []int{1, 3, 4, 64} {
				owner := engine.HashedOwner(g, machines)
				pl, err := engine.NewPlacement(g, owner, machines)
				if err != nil {
					t.Fatalf("%s on %d machines: %v", g.Name, machines, err)
				}
				want := make([][]int32, machines)
				for i, p := range owner {
					want[p] = append(want[p], int32(i))
				}
				counts := pl.EdgeCounts()
				local := pl.LocalEdges()
				if len(local) != machines {
					t.Fatalf("%s on %d machines: index has %d machines", g.Name, machines, len(local))
				}
				var prev []int32
				for p := range local {
					if !slices.Equal(local[p], want[p]) {
						t.Fatalf("%s on %d machines: LocalEdges()[%d]\n got %v\nwant %v", g.Name, machines, p, local[p], want[p])
					}
					if counts[p] != int64(len(want[p])) {
						t.Fatalf("%s on %d machines: EdgeCounts()[%d] = %d, want %d", g.Name, machines, p, counts[p], len(want[p]))
					}
					if len(local[p]) != cap(local[p]) {
						t.Fatalf("%s on %d machines: machine %d's LocalEdges can grow into its neighbour's", g.Name, machines, p)
					}
					if len(local[p]) == 0 {
						continue
					}
					if prev != nil && unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), 4*len(prev)) != unsafe.Pointer(&local[p][0]) {
						t.Fatalf("%s on %d machines: machine %d's edges do not follow the previous machine's in one arena", g.Name, machines, p)
					}
					prev = local[p]
				}
			}
		}
	})
}

// sameIndex reports whether a and b are one build's result: the same slice of
// machines, so every list is shared too.
func sameIndex(a, b [][]int32) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}
