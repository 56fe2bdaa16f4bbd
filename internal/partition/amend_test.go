package partition

import (
	"fmt"
	"slices"
	"testing"

	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// amendShapes are the delta shapes the differential suite sweeps.
var amendShapes = []struct {
	name             string
	inserts, deletes int
}{
	{"insert-only", 400, 0},
	{"delete-only", 0, 400},
	{"mixed", 300, 300},
}

// normImbalance is the owner vector's worst per-machine overload relative to
// its share target: 1.0 is perfect proportionality.
func normImbalance(t *testing.T, owner []int32, shares []float64) float64 {
	t.Helper()
	counts := make([]float64, len(shares))
	for i, p := range owner {
		if p < 0 || int(p) >= len(shares) {
			t.Fatalf("edge %d assigned to machine %d outside [0,%d)", i, p, len(shares))
		}
		counts[p]++
	}
	worst := 0.0
	for p := range counts {
		if r := counts[p] / float64(len(owner)) / shares[p]; r > worst {
			worst = r
		}
	}
	return worst
}

// sameOwners asserts two owner vectors are bit-identical.
func sameOwners(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d owners vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: owner %d is %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestAmendDifferential sweeps every Amender across window sizes, shard
// counts, delta shapes, machine counts and share skews, checking the
// per-algorithm fidelity contract documented on Amender:
//
//   - random and hybrid amendments are bit-identical to a full Partition of
//     the evolved graph;
//   - oblivious, hdrf and ginger amendments stay within the imbalance
//     envelope (10% relative + 0.05 absolute) of a full re-ingress;
//   - every amended vector is valid and invariant to the worker count.
//
// Besides the power-law base, the sweep runs on a multigraph whose every pair
// occurs four times, spread over the stream, so deletes claim occurrences a
// lockstep walk of the survivors would not pick; random and hybrid must stay
// exact there too. A hybrid and a ginger with their thresholds near the mean
// in-degree join the default set, so deltas move destinations across them.
func TestAmendDifferential(t *testing.T) {
	const seed = 101
	exact := map[string]bool{"random": true, "hybrid": true}
	lowGinger := NewGinger()
	lowGinger.Threshold = 10
	amenders := append(WithExtensions(), &Hybrid{Threshold: 10}, lowGinger)

	// Worker invariance: the amended vector for a config must not depend on
	// GOMAXPROCS. Keyed per (base, partitioner, shape, m, share).
	pinned := map[string][]int32{}

	bases := []*graph.Graph{
		testGraph(t, 71, 800, 6400),
		repeatedPairs(testGraph(t, 72, 400, 1600), 4),
	}
	for _, base := range bases {
		for _, shape := range amendShapes {
			d, err := gen.RandomDelta(base, gen.DeltaSpec{
				Inserts: shape.inserts, Deletes: shape.deletes, Time: 1,
			}, 37)
			if err != nil {
				t.Fatal(err)
			}
			evolved, err := d.Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 8} {
				withProcs(t, procs)
				for _, m := range []int{1, 8} {
					for si, shares := range diffShareVectors(t, m) {
						for pi, p := range amenders {
							a, ok := p.(Amender)
							if !ok {
								continue
							}
							label := fmt.Sprintf("%s/%d:%s/%s/p%d/m%d/share%d",
								base.Name, pi, p.Name(), shape.name, procs, m, si)
							baseOwner, err := p.Partition(base, shares, seed)
							if err != nil {
								t.Fatal(label, err)
							}
							amended, err := a.Amend(base, baseOwner, d, evolved, shares, seed)
							if err != nil {
								t.Fatal(label, err)
							}
							full, err := p.Partition(evolved, shares, seed)
							if err != nil {
								t.Fatal(label, err)
							}
							if exact[p.Name()] {
								sameOwners(t, label, amended, full)
							} else {
								got := normImbalance(t, amended, shares)
								want := normImbalance(t, full, shares)
								if got > want*1.10+0.05 {
									t.Errorf("%s: amended imbalance %.4f exceeds envelope over full %.4f",
										label, got, want)
								}
							}
							key := fmt.Sprintf("%s/%d:%s/%s/m%d/share%d", base.Name, pi, p.Name(), shape.name, m, si)
							if prev, ok := pinned[key]; !ok {
								pinned[key] = amended
							} else {
								sameOwners(t, key+" worker invariance", amended, prev)
							}
						}
					}
				}
			}
		}
	}
}

// repeatedPairs returns g's edge list repeated copies times back to back, so
// every pair recurs with its occurrences a full edge list apart.
func repeatedPairs(g *graph.Graph, copies int) *graph.Graph {
	out := &graph.Graph{Name: g.Name + "-repeated", NumVertices: g.NumVertices}
	for range copies {
		out.Edges = append(out.Edges, g.Edges...)
	}
	return out
}

// TestAmendRejectsMismatchedInputs pins the cross-checks that keep Amend from
// silently trusting a stale or misaligned base.
func TestAmendRejectsMismatchedInputs(t *testing.T) {
	base := testGraph(t, 5, 100, 800)
	// Asymmetric counts, so the evolved edge count differs from the base's
	// and the wrong-evolved-graph check below can trip on it.
	d, err := gen.RandomDelta(base, gen.DeltaSpec{Inserts: 10, Deletes: 4, Time: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	// Right edge count, wrong survivors: the same delta applied to base with
	// two edges swapped, and another delta of the same shape applied to base.
	swapped := &graph.Graph{Name: base.Name, NumVertices: base.NumVertices, Edges: slices.Clone(base.Edges)}
	i, j := 1, len(base.Edges)-2
	if swapped.Edges[i] == swapped.Edges[j] {
		t.Fatalf("edges %d and %d are one pair; swapping them changes nothing", i, j)
	}
	swapped.Edges[i], swapped.Edges[j] = swapped.Edges[j], swapped.Edges[i]
	reordered, err := d.Apply(swapped)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.RandomDelta(base, gen.DeltaSpec{Inserts: 10, Deletes: 4, Time: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	otherEvolved, err := other.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	shares := UniformShares(2)
	for _, p := range WithExtensions() {
		a, ok := p.(Amender)
		if !ok {
			continue
		}
		owner, err := p.Partition(base, shares, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Amend(base, owner[:len(owner)-1], d, evolved, shares, 1); err == nil {
			t.Errorf("%s: accepted a short owner vector", p.Name())
		}
		if _, err := a.Amend(base, owner, d, base, shares, 1); err == nil {
			t.Errorf("%s: accepted an evolved graph with the wrong edge count", p.Name())
		}
		if _, err := a.Amend(base, owner, d, evolved, []float64{0.5, 0.1}, 1); err == nil {
			t.Errorf("%s: accepted non-normalized shares", p.Name())
		}
		if p.Name() != "random" && p.Name() != "hybrid" {
			continue
		}
		// The lockstep walk is the check for the pure-per-edge amenders.
		if _, err := a.Amend(base, owner, d, reordered, shares, 1); err == nil {
			t.Errorf("%s: accepted survivors out of base's stream order", p.Name())
		}
		if _, err := a.Amend(base, owner, d, otherEvolved, shares, 1); err == nil {
			t.Errorf("%s: accepted an evolved graph that lost other edges than the deletes", p.Name())
		}
	}
}

// TestAmendGrowsVertexSpace exercises amendment across a vertex-space grow,
// where the evolved graph has endpoints the base never saw.
func TestAmendGrowsVertexSpace(t *testing.T) {
	base := testGraph(t, 9, 200, 1600)
	d := &graph.Delta{
		Time:        2,
		Inserts:     []graph.Edge{{Src: graph.VertexID(base.NumVertices), Dst: 0}, {Src: 1, Dst: graph.VertexID(base.NumVertices + 3)}},
		NumVertices: base.NumVertices + 4,
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	shares := UniformShares(4)
	for _, p := range WithExtensions() {
		a, ok := p.(Amender)
		if !ok {
			continue
		}
		owner, err := p.Partition(base, shares, 2)
		if err != nil {
			t.Fatal(err)
		}
		amended, err := a.Amend(base, owner, d, evolved, shares, 2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		normImbalance(t, amended, shares) // validity: every owner in range
		if len(amended) != len(evolved.Edges) {
			t.Fatalf("%s: %d owners for %d evolved edges", p.Name(), len(amended), len(evolved.Edges))
		}
	}
}
