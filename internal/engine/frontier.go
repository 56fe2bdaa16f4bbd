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
// maintained (for O(1) membership tests during dense sweeps) plus a sparse
// worklist kept only while the frontier stays under the density threshold.
// Once the worklist overflows the frontier degrades to bitmap-only and the
// engine runs dense supersteps; resetting costs O(active), not O(|V|), while
// the worklist survives.
type frontier struct {
	bits []bool
	list []graph.VertexID
	// listCap is the worklist length at which the frontier degrades; it is
	// |V|/sparseFrontierDenom + 1, so overflow ⇔ the step must run dense.
	listCap  int
	count    int
	overflow bool
}

func newFrontier(n int) frontier {
	return frontier{bits: make([]bool, n), listCap: n/sparseFrontierDenom + 1}
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
// caller-supplied — by testing the bitmap before each add.
func (f *frontier) seed(vs []graph.VertexID) {
	for _, v := range vs {
		if !f.bits[v] {
			f.add(v)
		}
	}
}

// add activates v. Each vertex is applied at most once per superstep (masters
// partition the vertex set), so callers never add the same vertex twice and
// the worklist needs no deduplication.
func (f *frontier) add(v graph.VertexID) {
	f.bits[v] = true
	f.count++
	if !f.overflow {
		if len(f.list) >= f.listCap {
			f.overflow = true
			f.list = f.list[:0]
		} else {
			f.list = append(f.list, v)
		}
	}
}

// has reports whether v is active.
func (f *frontier) has(v graph.VertexID) bool { return f.bits[v] }

// sparse reports whether the frontier is under the density threshold and
// still carries its worklist.
func (f *frontier) sparse() bool { return !f.overflow }

// sorted returns the worklist in ascending vertex order (sorting in place),
// giving the sparse sweep a deterministic, cache-friendly visit order.
func (f *frontier) sorted() []graph.VertexID {
	slices.Sort(f.list)
	return f.list
}

// restore overwrites the frontier from a checkpointed bitmap. The worklist is
// rebuilt in ascending order exactly when the set is under the density
// threshold, matching what organic add()s would have produced (overflow
// triggers on the add that would push the list past listCap, so a finished
// frontier overflows iff count > listCap).
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

// reset deactivates everything in O(active) when sparse, O(|V|) otherwise.
func (f *frontier) reset() {
	if f.overflow {
		clear(f.bits)
	} else {
		for _, v := range f.list {
			f.bits[v] = false
		}
	}
	f.list = f.list[:0]
	f.count = 0
	f.overflow = false
}
