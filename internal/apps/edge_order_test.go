package apps

import (
	"reflect"
	"slices"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
)

// shuffledLocalEdges returns pl with every machine's local edge list permuted
// by a seeded shuffle. Ownership, replicas and masters are pl's; the compiled
// gather blocks are rebuilt from the new order on first use.
func shuffledLocalEdges(pl *engine.Placement, seed uint64) *engine.Placement {
	src := rng.New(seed)
	local := make([][]int32, len(pl.LocalEdges))
	for p, edges := range pl.LocalEdges {
		local[p] = slices.Clone(edges)
		src.Shuffle(len(local[p]), func(i, j int) { local[p][i], local[p][j] = local[p][j], local[p][i] })
	}
	return &engine.Placement{
		G: pl.G, M: pl.M, EdgeOwner: pl.EdgeOwner, LocalEdges: local,
		ReplicaMask: pl.ReplicaMask, Master: pl.Master, MasterVerts: pl.MasterVerts,
	}
}

// TestClockInvariantUnderLocalEdgeOrder: the simulated clock is a function of
// the placement, not of the order its edge lists happen to be stored in. Every
// app runs on one placement and on the same placement with each machine's
// LocalEdges shuffled; the result and the whole event stream must agree, with
// floats compared bit for bit. Only PageRank's ranks may move: each
// destination's fold sums the same contributions in another order, so they
// may differ by float re-association, within floatClose's 1e-12 relative
// bound. The graph carries weights so that SSSP relaxes along more than unit
// hops.
func TestClockInvariantUnderLocalEdgeOrder(t *testing.T) {
	g := graph.AttachWeights(equivGraph(t), 1, 10, 3)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	shuffled := shuffledLocalEdges(pl, 7)

	for _, app := range WithExtensions() {
		t.Run(app.Name(), func(t *testing.T) {
			if app.Name() == "sssp" {
				t.Skip("SSSP relaxes dist in place within one scan of LocalEdges, so its rounds follow edge order; ROADMAP direction 2 makes it synchronous Bellman-Ford")
			}
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
