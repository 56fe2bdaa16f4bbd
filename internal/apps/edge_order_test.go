package apps

import (
	"reflect"
	"slices"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
)

// shuffledLocalEdges returns pl over a copy of its graph in which every
// machine's edges are permuted by a seeded shuffle among that machine's own
// slots of G.Edges. EdgeOwner is pl's, so every machine owns the same edges
// as before, only in another local order, and the replicas come out the same;
// the masters are pl's too, since master selection samples incidences in
// stream order. The local edge index and the gather blocks are built from the
// new order on first use.
func shuffledLocalEdges(t *testing.T, pl *engine.Placement, seed uint64) *engine.Placement {
	src := rng.New(seed)
	g := *pl.G
	g.Edges = slices.Clone(pl.G.Edges)
	for _, slots := range pl.LocalEdges() {
		perm := slices.Clone(slots)
		src.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i, from := range perm {
			g.Edges[slots[i]] = pl.G.Edges[from]
		}
	}
	shuffled, err := engine.NewPlacement(&g, pl.EdgeOwner, pl.M)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shuffled.ReplicaMask, pl.ReplicaMask) {
		t.Fatal("the shuffle moved an edge between machines")
	}
	shuffled.Master, shuffled.MasterVerts = pl.Master, pl.MasterVerts
	return shuffled
}

// TestClockInvariantUnderLocalEdgeOrder: the simulated clock is a function of
// the placement, not of the order its edge lists happen to be stored in. Every
// app runs on one placement and on the same placement with each machine's
// edges shuffled within its own slots of the edge list, so the local edge
// index walks them in another order; the result and the whole event stream
// must agree, with floats compared bit for bit. Only PageRank's ranks may
// move: each destination's fold sums the same contributions in another order,
// so they may differ by float re-association, within floatClose's 1e-12
// relative bound.
func TestClockInvariantUnderLocalEdgeOrder(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	shuffled := shuffledLocalEdges(t, pl, 7)
	if slices.Equal(shuffled.G.Edges, pl.G.Edges) {
		t.Fatal("the shuffle left every edge in place")
	}

	for _, app := range WithExtensions() {
		t.Run(app.Name(), func(t *testing.T) {
			run := func(pl *engine.Placement) (*engine.Result, []trace.Event) {
				rec := trace.NewRecorder()
				res, err := Run(app, pl, cl, engine.Options{Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				return res, rec.Events
			}
			want, wantEvents := run(pl)
			got, gotEvents := run(shuffled)

			samePriced(t, "shuffled", want, got)
			if got.Checkpoints != want.Checkpoints || got.Recoveries != want.Recoveries {
				t.Errorf("checkpoints/recoveries %d/%d, ordered %d/%d", got.Checkpoints, got.Recoveries, want.Checkpoints, want.Recoveries)
			}
			sameEvents(t, "shuffled", wantEvents, gotEvents)

			switch app.Name() {
			case "pagerank", "pagerank_async":
				a, b := want.Output.([]float64), got.Output.([]float64)
				for v := range a {
					if !floatClose(a[v], b[v]) {
						t.Fatalf("vertex %d rank %v, ordered %v", v, b[v], a[v])
					}
				}
			default:
				if !reflect.DeepEqual(want.Output, got.Output) {
					t.Errorf("output differs from the ordered run")
				}
			}
		})
	}
}
