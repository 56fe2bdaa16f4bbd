package graph

import (
	"sync"

	"proxygraph/internal/par"
)

// degreeScratch pools the per-worker counting arrays of the parallel degree
// scans. Before pooling, every call allocated workers×|V| int32s, so the
// ingress pipeline's bytes/op grew linearly with the worker count (hybrid at
// eight workers: 9.6MB/op against 6.8MB at one, now pinned by
// partition.TestHybridShardedBytesRegression); pooled arrays are grown once
// and reused across calls, making the scans' steady-state allocation cost
// independent of the worker count.
var degreeScratch sync.Pool

// getDegreeScratch returns a zeroed length-n count array, reusing pooled
// capacity when available.
func getDegreeScratch(n int) []int32 {
	if v := degreeScratch.Get(); v != nil {
		s := *(v.(*[]int32))
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]int32, n)
}

// putDegreeScratch returns a count array to the pool.
func putDegreeScratch(s []int32) {
	degreeScratch.Put(&s)
}

// InDegreesParallel computes InDegrees across par.Ranges: each worker counts
// a contiguous edge range into a pooled private array, then the per-vertex
// sums are merged (also by range, over vertices) into a freshly allocated
// result. Integer addition is exact and commutative, so the result is
// bit-identical to the sequential scan at every worker count — the property
// the ingress differential test relies on.
func (g *Graph) InDegreesParallel() []int32 {
	workers := par.Workers(len(g.Edges))
	if workers == 1 {
		return g.InDegrees()
	}
	parts := make([][]int32, workers)
	par.Ranges(len(g.Edges), func(w, lo, hi int) {
		deg := getDegreeScratch(g.NumVertices)
		for _, e := range g.Edges[lo:hi] {
			deg[e.Dst]++
		}
		parts[w] = deg
	})
	out := make([]int32, g.NumVertices)
	par.Ranges(g.NumVertices, func(_, lo, hi int) {
		for _, part := range parts {
			for v := lo; v < hi; v++ {
				out[v] += part[v]
			}
		}
	})
	for _, part := range parts {
		putDegreeScratch(part)
	}
	return out
}
