package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"proxygraph/internal/apps"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// outcome is what one unit of work is checked on: the engine's exact counts,
// the simulated clock, and a digest of the application output. Integer
// outputs digest exactly; PageRank also carries a position-weighted rank sum,
// which is what a pinned expectation compares (to 1e-9 relative, the
// documented float re-association envelope) in place of the bit digest.
type outcome struct {
	Supersteps int     `json:"supersteps"`
	Gathers    float64 `json:"gathers"`
	SimSeconds float64 `json:"sim_seconds"`
	Digest     string  `json:"digest,omitempty"`
	FloatSum   float64 `json:"float_sum,omitempty"`

	// out is the raw application output, kept only where an oracle will
	// verify it element by element.
	out any
}

// fnv folds 64-bit words into an FNV-1a style digest.
type fnv uint64

func newFNV() fnv { return 0xcbf29ce484222325 }

func (h *fnv) word(w uint64) { *h = (*h ^ fnv(w)) * 0x100000001b3 }

// outcomeOf extracts the checked fields of a result. keep retains the raw
// output for the oracle.
func outcomeOf(res *engine.Result, keep bool) (outcome, error) {
	o := outcome{Supersteps: res.Supersteps, Gathers: res.Gathers, SimSeconds: res.SimSeconds}
	h := newFNV()
	switch out := res.Output.(type) {
	case []float64: // PageRank ranks
		for v, r := range out {
			h.word(math.Float64bits(r))
			o.FloatSum += r * float64(1+v%97)
		}
	case apps.Components:
		for _, l := range out.Labels {
			h.word(uint64(l))
		}
	case []int32: // BFS distances
		for _, d := range out {
			h.word(uint64(uint32(d)))
		}
	case apps.SSSPResult:
		for _, d := range out.Dist {
			h.word(math.Float64bits(d))
		}
	case apps.KCoreResult:
		for _, c := range out.Core {
			h.word(uint64(uint32(c)))
		}
	case *apps.ClusterLabels:
		k := out.K()
		for v := range out.States {
			h.word(out.States[v].Seen)
			for j := 0; j < k; j++ {
				h.word(uint64(uint32(out.States[v].Dist[j])))
			}
		}
	default:
		return o, fmt.Errorf("no digest for output type %T", res.Output)
	}
	o.Digest = strconv.FormatUint(uint64(h), 16)
	if keep {
		o.out = res.Output
	}
	return o, nil
}

// sameRun reports whether two outcomes of the same class in the same process
// are identical: the engines are deterministic, so every field is exact.
func sameRun(a, b outcome) error {
	if a.Supersteps != b.Supersteps || a.Gathers != b.Gathers || a.SimSeconds != b.SimSeconds || a.Digest != b.Digest {
		return fmt.Errorf("outcome changed between runs: %+v vs %+v", a.pinned(), b.pinned())
	}
	return nil
}

// pinned strips the raw output.
func (o outcome) pinned() outcome { o.out = nil; return o }

// matchesPinned compares an outcome to a pinned expectation. Counts are
// exact. The simulated clock is compared to 1e-12 relative: it is
// bit-identical on one architecture, and the margin only absorbs fused
// multiply-add on another. Float outputs compare their weighted sum to 1e-9.
func (o outcome) matchesPinned(want outcome) error {
	if o.Supersteps != want.Supersteps || o.Gathers != want.Gathers {
		return fmt.Errorf("counts: got %d supersteps / %.0f gathers, pinned %d / %.0f",
			o.Supersteps, o.Gathers, want.Supersteps, want.Gathers)
	}
	if !closeTo(o.SimSeconds, want.SimSeconds, 1e-12) {
		return fmt.Errorf("sim seconds: got %v, pinned %v", o.SimSeconds, want.SimSeconds)
	}
	if want.FloatSum != 0 {
		if !closeTo(o.FloatSum, want.FloatSum, 1e-9) {
			return fmt.Errorf("rank sum: got %v, pinned %v", o.FloatSum, want.FloatSum)
		}
		return nil
	}
	if o.Digest != want.Digest {
		return fmt.Errorf("output digest: got %s, pinned %s", o.Digest, want.Digest)
	}
	return nil
}

func closeTo(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// forPinning is the form an outcome takes in expected.json: float outputs pin
// the weighted sum, integer outputs the digest.
func (o outcome) forPinning() outcome {
	o = o.pinned()
	if o.FloatSum != 0 {
		o.Digest = ""
	}
	return o
}

// ---- pinned expectations ---------------------------------------------------

// pinnedSeeds are the seeds with expectations in testdata/expected.json: the
// default seed and the held-out confirmation seed. Any other seed is checked
// by the oracles and the run-to-run identity alone.
var pinnedSeeds = []uint64{20160816, 7}

//go:embed testdata/expected.json
var expectedJSON []byte

// expectations maps seed → workload → class → outcome.
type expectations map[string]map[string]map[string]outcome

func loadExpectations() (expectations, error) {
	exp := expectations{}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return exp, nil
}

// lookup returns the pinned classes of a (seed, workload), or nil when the
// seed is not pinned.
func (e expectations) lookup(seed uint64, workload string) (map[string]outcome, error) {
	pinned := false
	for _, s := range pinnedSeeds {
		pinned = pinned || s == seed
	}
	if !pinned {
		return nil, nil
	}
	classes := e[strconv.FormatUint(seed, 10)][workload]
	if classes == nil {
		return nil, fmt.Errorf("seed %d workload %s is not in testdata/expected.json; run with -update", seed, workload)
	}
	return classes, nil
}

func writeExpectations(dir string, exp expectations) error {
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "testdata", "expected.json"), append(data, '\n'), 0o644)
}

// ---- oracles ---------------------------------------------------------------
//
// Each oracle recomputes an application's output with the plainest algorithm
// that defines it, sharing no code with the engine, so any seed's run can be
// checked without a pinned file.

// adjacency is the undirected view: both directions of every edge.
type adjacency struct {
	off []int32
	nbr []graph.VertexID
}

func undirected(g *graph.Graph) *adjacency {
	a := &adjacency{off: make([]int32, g.NumVertices+1), nbr: make([]graph.VertexID, 2*len(g.Edges))}
	for _, e := range g.Edges {
		a.off[e.Src+1]++
		a.off[e.Dst+1]++
	}
	for v := 0; v < g.NumVertices; v++ {
		a.off[v+1] += a.off[v]
	}
	next := append([]int32(nil), a.off[:g.NumVertices]...)
	for _, e := range g.Edges {
		a.nbr[next[e.Src]] = e.Dst
		next[e.Src]++
		a.nbr[next[e.Dst]] = e.Src
		next[e.Dst]++
	}
	return a
}

func (a *adjacency) of(v graph.VertexID) []graph.VertexID { return a.nbr[a.off[v]:a.off[v+1]] }

// bfsOracle returns hop distances from src over the undirected view, -1 for
// unreached vertices.
func bfsOracle(a *adjacency, src graph.VertexID) []int32 {
	dist := make([]int32, len(a.off)-1)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range a.of(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// componentsOracle labels every vertex with the smallest vertex id of its
// weakly connected component, the fixed point of min-label propagation.
func componentsOracle(a *adjacency) []uint32 {
	n := len(a.off) - 1
	label := make([]uint32, n)
	seen := make([]bool, n)
	for root := 0; root < n; root++ {
		if seen[root] {
			continue
		}
		// Vertices are visited in id order, so root is its component's
		// smallest id.
		seen[root] = true
		stack := []graph.VertexID{graph.VertexID(root)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			label[v] = uint32(root)
			for _, u := range a.of(v) {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	return label
}

// coreOracle returns core numbers of the simple undirected graph (duplicate
// neighbours removed) by repeatedly deleting a minimum-degree vertex.
func coreOracle(a *adjacency) []int32 {
	n := len(a.off) - 1
	nbrs := make([][]graph.VertexID, n)
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		list := append([]graph.VertexID(nil), a.of(graph.VertexID(v))...)
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		uniq := list[:0]
		for i, u := range list {
			if i == 0 || u != list[i-1] {
				uniq = append(uniq, u)
			}
		}
		nbrs[v] = uniq
		deg[v] = int32(len(uniq))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]graph.VertexID, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], graph.VertexID(v))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	k := int32(0)
	for d := int32(0); d <= maxDeg; {
		if len(buckets[d]) == 0 {
			d++
			continue
		}
		v := buckets[d][len(buckets[d])-1]
		buckets[d] = buckets[d][:len(buckets[d])-1]
		if removed[v] || deg[v] != d {
			continue // a stale entry: v moved to a lower bucket
		}
		if d > k {
			k = d
		}
		core[v] = k
		removed[v] = true
		for _, u := range nbrs[v] {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < d {
					d = deg[u]
				}
			}
		}
	}
	return core
}

// pageRankOracle runs iters synchronous rounds of
// rank(v) = (1-d) + d·Σ rank(u)/outdeg(u) over in-edges, from rank 1.
func pageRankOracle(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices
	outDeg := make([]float64, n)
	for _, e := range g.Edges {
		outDeg[e.Src]++
	}
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1
	}
	acc := make([]float64, n)
	for it := 0; it < iters; it++ {
		clear(acc)
		for _, e := range g.Edges {
			acc[e.Dst] += rank[e.Src] / outDeg[e.Src]
		}
		for v := range rank {
			rank[v] = (1 - damping) + damping*acc[v]
		}
	}
	return rank
}

// verify compares a raw application output with its oracle.
func verify(app apps.App, g *graph.Graph, adj *adjacency, out any) error {
	mismatch := func(v int, got, want any) error {
		return fmt.Errorf("%s on %s: vertex %d is %v, oracle says %v", app.Name(), g.Name, v, got, want)
	}
	switch a := app.(type) {
	case *apps.PageRank:
		got, want := out.([]float64), pageRankOracle(g, a.Damping, a.MaxIters)
		for v := range want {
			if !closeTo(got[v], want[v], 1e-9) {
				return mismatch(v, got[v], want[v])
			}
		}
	case *apps.ConnectedComponents:
		got, want := out.(apps.Components).Labels, componentsOracle(adj)
		for v := range want {
			if got[v] != want[v] {
				return mismatch(v, got[v], want[v])
			}
		}
	case *apps.BFS:
		got, want := out.([]int32), bfsOracle(adj, a.Source)
		for v := range want {
			if got[v] != want[v] {
				return mismatch(v, got[v], want[v])
			}
		}
	case *apps.SSSP:
		// The generated graphs are unweighted, so shortest paths are hop
		// counts.
		got, want := out.(apps.SSSPResult).Dist, bfsOracle(adj, a.Source)
		for v := range want {
			w := math.Inf(1)
			if want[v] >= 0 {
				w = float64(want[v])
			}
			if got[v] != w {
				return mismatch(v, got[v], w)
			}
		}
	case *apps.KCore:
		got, want := out.(apps.KCoreResult).Core, coreOracle(adj)
		for v := range want {
			if got[v] != want[v] {
				return mismatch(v, got[v], want[v])
			}
		}
	case *apps.ClusterBFS:
		labels := out.(*apps.ClusterLabels)
		for j, src := range a.Sources {
			want := bfsOracle(adj, src)
			for v := range want {
				if got := labels.Dist(graph.VertexID(v), j); got != want[v] {
					return fmt.Errorf("%s on %s: lane %d vertex %d is %d, oracle says %d", app.Name(), g.Name, j, v, got, want[v])
				}
				if labels.Reached(graph.VertexID(v), j) != (want[v] >= 0) {
					return fmt.Errorf("%s on %s: lane %d vertex %d reach bit disagrees with the oracle", app.Name(), g.Name, j, v)
				}
			}
		}
	default:
		return fmt.Errorf("no oracle for %T", app)
	}
	return nil
}
