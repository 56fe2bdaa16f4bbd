package engine

import (
	"slices"

	"proxygraph/internal/graph"
)

// sparseFrontierDenom sets the hybrid frontier's density threshold: a
// superstep runs the sparse (worklist-driven) gather only while the frontier
// holds at most |V|/sparseFrontierDenom vertices. Below that density the
// worklist sweep — O(Σ deg(f) + |F| log K) over active vertices f and the K
// source groups of one machine block, paid once per machine block since every
// block is searched for every active vertex — beats the dense sweep's
// O(local records) scan by roughly the density ratio; above it
// the bitmap sweep's sequential access pattern wins, the same crossover
// direction-optimizing BFS engines switch on.
const sparseFrontierDenom = 8

// frontier is the hybrid active-vertex set: a dense bitmap that is always
// maintained (for O(1) membership tests during dense sweeps) plus a worklist
// of capacity |V|, meaningful only under the density threshold. A run keeps
// one: once the gather has read it, clearBits empties the bitmap, the
// worklist's storage receives Program.Apply's signalled vertices and take
// adopts them, so the list never grows.
type frontier struct {
	bits []bool
	list []graph.VertexID
	// listCap is the largest worklist a sparse frontier holds; it is
	// |V|/sparseFrontierDenom + 1, so overflow ⇔ the step must run dense.
	listCap  int
	count    int
	overflow bool
}

func newFrontier(n int) frontier {
	return frontier{bits: make([]bool, n), list: make([]graph.VertexID, 0, n), listCap: n/sparseFrontierDenom + 1}
}

// fill activates every vertex (the first superstep's frontier), in
// bitmap-only form.
func (f *frontier) fill() {
	for i := range f.bits {
		f.bits[i] = true
	}
	f.count = len(f.bits)
	f.list = f.list[:0]
	f.overflow = true
}

// seed activates exactly the given vertices (the warm-start superstep-0
// frontier). Duplicates are tolerated — Options.InitialActive is
// caller-supplied — by testing the bitmap before each append.
func (f *frontier) seed(vs []graph.VertexID) {
	list := f.list[:0]
	for _, v := range vs {
		if !f.bits[v] {
			f.bits[v] = true
			list = append(list, v)
		}
	}
	f.take(list)
}

// take adopts list — Program.Apply's signalled vertices, appended to
// f.list[:0] — as the frontier, sparse exactly when it holds at most listCap.
// Masters partition the vertex set, so the list holds no duplicates.
func (f *frontier) take(list []graph.VertexID) {
	for _, v := range list {
		f.bits[v] = true
	}
	f.list = list
	f.count = len(list)
	f.overflow = len(list) > f.listCap
}

// clearBits deactivates every vertex in O(active) when sparse, O(|V|)
// otherwise. The worklist's contents are left for take to overwrite.
func (f *frontier) clearBits() {
	if f.overflow {
		clear(f.bits)
		return
	}
	for _, v := range f.list {
		f.bits[v] = false
	}
}

// sparse reports whether the frontier is under the density threshold, so its
// worklist holds exactly the active vertices.
func (f *frontier) sparse() bool { return !f.overflow }

// sorted returns the worklist in ascending vertex order (sorting in place),
// giving the sparse sweep a deterministic, cache-friendly visit order.
func (f *frontier) sorted() []graph.VertexID {
	slices.Sort(f.list)
	return f.list
}

// restore overwrites the frontier from a checkpointed bitmap. The worklist is
// rebuilt, in ascending order, exactly when count ≤ listCap: what take would
// have adopted, up to the order sorted() imposes before any sweep.
func (f *frontier) restore(active []bool, count int) {
	copy(f.bits, active)
	f.count = count
	f.list = f.list[:0]
	f.overflow = count > f.listCap
	if !f.overflow {
		for v, on := range active {
			if on {
				f.list = append(f.list, graph.VertexID(v))
			}
		}
	}
}
