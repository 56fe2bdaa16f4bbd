package workload

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// Fingerprint domains. Every term of a graph fingerprint is keyed into its
// own SplitMix64 stream so vertex-count and edge terms cannot cancel.
const (
	fpGraphDomain = 0x67726170 // "grap"
	fpEdgeDomain  = 0x65646765 // "edge"
	fpJobDomain   = 0x6a6f6266 // "jobf"
)

// edgeTerm is one edge's contribution to a graph fingerprint. The weight is
// always folded in (1 for unweighted graphs, matching graph.Weight), so an
// unweighted graph and the same graph with an explicit all-1 weight column —
// which are semantically identical — fingerprint identically, and a weighted
// delta over an unweighted base stays incrementally computable.
func edgeTerm(e graph.Edge, w float32) uint64 {
	return rng.Hash2(rng.Hash3(fpEdgeDomain, uint64(e.Src), uint64(e.Dst)), uint64(math.Float32bits(w)))
}

// vertexTerm is the vertex-count contribution.
func vertexTerm(n int) uint64 {
	return rng.Hash2(fpGraphDomain, uint64(n))
}

// rescanFingerprint hashes a graph's full content. The edge terms combine by
// addition mod 2^64 — an incremental multiset hash — so the fingerprint
// identifies (vertex count, weighted-edge multiset) and a Delta can update it
// in O(|batch|) (see EvolveFingerprint) with a result identical to a rescan
// of the evolved graph. The deliberate trade: two graphs whose edge lists are
// permutations of each other share a fingerprint. Execution results depend
// only on the multiset, so a placement-cache hit across a permutation is
// sound for outputs; charged times reflect the cached stream order, which is
// the same blur dynamic rebalancing already introduces.
//
// The same order-freedom lets the scan shard: contiguous edge ranges are
// summed across GOMAXPROCS (the caller's goroutine takes the first), and the
// result is bit-identical at every shard count.
func rescanFingerprint(g *graph.Graph) uint64 {
	fp := vertexTerm(g.NumVertices)
	n := len(g.Edges)
	shards := min(runtime.GOMAXPROCS(0), n)
	if shards <= 1 {
		return fp + edgeTermSum(g, 0, n)
	}
	// One allocation for the join state, plus one closure per extra shard.
	acc := &struct {
		wg  sync.WaitGroup
		sum atomic.Uint64
	}{}
	acc.wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		lo, hi := n*s/shards, n*(s+1)/shards
		go func() {
			defer acc.wg.Done()
			acc.sum.Add(edgeTermSum(g, lo, hi))
		}()
	}
	fp += edgeTermSum(g, 0, n/shards)
	acc.wg.Wait()
	return fp + acc.sum.Load()
}

// unitWeightHash is the hashed weight operand of every unweighted edge term.
var unitWeightHash = rng.Hash64(uint64(math.Float32bits(1)))

// edgeTermSum is Σ edgeTerm over g.Edges[lo:hi] mod 2^64, with edgeTerm's
// hashes written out so that work shared between edges is done once:
// generated edge lists come grouped by source, so Hash3's inner
// Hash2(fpEdgeDomain, src) is recomputed only when the source changes, and
// unweighted graphs take the weight operand's hash from unitWeightHash
// instead of rehashing the constant 1 per edge.
func edgeTermSum(g *graph.Graph, lo, hi int) uint64 {
	var sum uint64
	weights := g.Weights
	src, srcHash := graph.VertexID(0), rng.Hash2(fpEdgeDomain, 0)
	for i, e := range g.Edges[lo:hi] {
		if e.Src != src {
			src, srcHash = e.Src, rng.Hash2(fpEdgeDomain, uint64(e.Src))
		}
		pair := rng.Hash2(srcHash, uint64(e.Dst))
		if weights == nil {
			sum += rng.Hash2Hashed(pair, unitWeightHash)
		} else {
			sum += rng.Hash2(pair, uint64(math.Float32bits(weights[lo+i])))
		}
	}
	return sum
}

// fpMu guards fpMemo. The memo keys on weak pointers so it never pins a
// graph: once every strong reference to a fingerprinted graph is dropped the
// graph is collectable, and the runtime cleanup removes its entry — a
// long-running service no longer retains every graph ever submitted (the old
// sync.Map memo keyed on the raw pointer and kept it alive forever). A weak
// key also cannot stale-hit: weak.Make on a new allocation at a reused
// address yields a distinct handle, so eviction is race-free by construction.
var (
	fpMu   sync.Mutex
	fpMemo = map[weak.Pointer[graph.Graph]]uint64{}
)

// GraphFingerprint hashes a graph's content (vertex count, weighted edge
// multiset) into a stable 64-bit fingerprint, memoized per graph object. A
// nil graph fingerprints to 0. Graphs are immutable after construction, which
// is what makes the memo sound; evolved versions are new objects whose
// fingerprints the Delta path registers via EvolveFingerprint.
func GraphFingerprint(g *graph.Graph) uint64 {
	if g == nil {
		return 0
	}
	w := weak.Make(g)
	fpMu.Lock()
	if fp, ok := fpMemo[w]; ok {
		fpMu.Unlock()
		return fp
	}
	fpMu.Unlock()
	fp := rescanFingerprint(g)
	memoFingerprint(g, w, fp)
	return fp
}

// memoFingerprint stores fp for g and arms the collection-time eviction. The
// double-checked insert keeps AddCleanup single-shot per entry when two
// goroutines fingerprint the same graph concurrently.
func memoFingerprint(g *graph.Graph, w weak.Pointer[graph.Graph], fp uint64) {
	fpMu.Lock()
	defer fpMu.Unlock()
	if _, ok := fpMemo[w]; ok {
		return
	}
	fpMemo[w] = fp
	runtime.AddCleanup(g, func(key weak.Pointer[graph.Graph]) {
		fpMu.Lock()
		delete(fpMemo, key)
		fpMu.Unlock()
	}, w)
}

// ReleaseGraphFingerprint drops g's memoized fingerprint immediately — the
// explicit invalidation hook for callers retiring a graph before the garbage
// collector would notice (e.g. a service evicting a tenant's graphs on
// deadline). Safe to call for graphs that were never fingerprinted; the
// collection-time cleanup tolerates the entry already being gone.
func ReleaseGraphFingerprint(g *graph.Graph) {
	if g == nil {
		return
	}
	fpMu.Lock()
	delete(fpMemo, weak.Make(g))
	fpMu.Unlock()
}

// FingerprintMemoSize reports the number of memoized graph fingerprints,
// for tests and capacity monitoring.
func FingerprintMemoSize() int {
	fpMu.Lock()
	defer fpMu.Unlock()
	return len(fpMemo)
}

// EvolveFingerprint returns evolved's content fingerprint computed from
// base's memoized fingerprint and the batch alone — O(|batch|) hashing
// instead of an O(|E|) rescan (deletes over a weighted base additionally pay
// the index scan that matches occurrences to their weights) — and memoizes it
// for evolved so the Delta path updates the memo rather than rescanning. The
// result is bit-identical to GraphFingerprint(evolved): the multiset hash
// makes "chain over the batch" and "rescan the result" the same number.
func EvolveFingerprint(base *graph.Graph, d *graph.Delta, evolved *graph.Graph) (uint64, error) {
	fp := GraphFingerprint(base)
	fp -= vertexTerm(base.NumVertices)
	fp += vertexTerm(evolved.NumVertices)
	if base.Weights == nil {
		for _, e := range d.Deletes {
			fp -= edgeTerm(e, 1)
		}
	} else {
		idx, err := d.DeletedIndices(base)
		if err != nil {
			return 0, err
		}
		for _, i := range idx {
			fp -= edgeTerm(base.Edges[i], base.Weights[i])
		}
	}
	for i, e := range d.Inserts {
		w := float32(1)
		if d.InsertWeights != nil {
			w = d.InsertWeights[i]
		}
		fp += edgeTerm(e, w)
	}
	memoFingerprint(evolved, weak.Make(evolved), fp)
	return fp, nil
}

// Fingerprint is the job's content identity: app name, graph content and
// partitioning seed. Two jobs with equal fingerprints perform the same work,
// which is what idempotent resubmission needs to decide whether a reused
// idempotency key is a retry of the same job or a client bug. The zero Job
// fingerprints deterministically too (empty app, nil graph).
func (j Job) Fingerprint() uint64 {
	app := ""
	if j.App != nil {
		app = j.App.Name()
	}
	h := rng.Hash2(fpJobDomain, rng.HashString(app))
	h = rng.Hash2(h, GraphFingerprint(j.Graph))
	return rng.Hash2(h, j.Seed)
}
