package graph

import (
	"sync"

	"proxygraph/internal/par"
)

// degreeScratch pools the counting arrays of the parallel in-degree scan,
// each in the *[]int32 box it travels in, so returning one costs no
// allocation. Before pooling, every call allocated workers×|V| int32s, so the
// ingress pipeline's bytes/op grew linearly with the worker count (hybrid at
// eight workers: 9.6MB/op against 6.8MB at one, now pinned by
// partition.TestHybridShardedBytesRegression); pooled arrays are grown once
// and reused across calls, making the scan's steady-state allocation cost
// independent of the worker count.
var degreeScratch sync.Pool

// getDegreeScratch returns a box holding a zeroed length-n count array,
// reusing a pooled box and its capacity when available.
func getDegreeScratch(n int) *[]int32 {
	box, _ := degreeScratch.Get().(*[]int32)
	if box == nil {
		box = new([]int32)
	}
	if cap(*box) < n {
		*box = make([]int32, n)
	} else {
		*box = (*box)[:n]
		clear(*box)
	}
	return box
}

// InDegreesParallel computes InDegrees across par.Ranges: each worker counts
// a contiguous edge range into a pooled private array, then the other
// workers' counts are merged (also by range, over vertices) into the first
// worker's array, which is the result; at one worker it is the only array.
// Integer addition is exact and commutative, so the result is bit-identical
// to the sequential scan at every worker count — the property the ingress
// differential test relies on.
//
// The result comes from the scan's scratch pool. A caller done with it hands
// it back with ReleaseDegrees, so the next scan reuses it; a caller that
// keeps it, or simply drops it, only loses that reuse.
func (g *Graph) InDegreesParallel() []int32 {
	boxes := make([]*[]int32, par.Workers(len(g.Edges)))
	par.Ranges(len(g.Edges), func(w, lo, hi int) {
		box := getDegreeScratch(g.NumVertices)
		deg := *box
		for _, e := range g.Edges[lo:hi] {
			deg[e.Dst]++
		}
		boxes[w] = box
	})
	out, rest := *boxes[0], boxes[1:]
	if len(rest) > 0 {
		par.Ranges(g.NumVertices, func(_, lo, hi int) {
			for _, box := range rest {
				part := *box
				for v := lo; v < hi; v++ {
					out[v] += part[v]
				}
			}
		})
	}
	for _, box := range rest {
		degreeScratch.Put(box)
	}
	return out
}

// ReleaseDegrees hands an array InDegreesParallel returned back to the scan's
// scratch pool; the caller must not touch deg afterwards. Releasing is
// optional: an array never released is collected like any other, and only
// its reuse is lost.
func ReleaseDegrees(deg []int32) {
	degreeScratch.Put(&deg)
}
