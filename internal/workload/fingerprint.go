package workload

import (
	"math"
	"runtime"
	"sync"
	"weak"

	"proxygraph/internal/graph"
	"proxygraph/internal/par"
	"proxygraph/internal/rng"
)

// Fingerprint domains. Every term of a graph fingerprint is keyed into its
// own SplitMix64 stream so vertex-count and edge terms cannot cancel.
const (
	fpGraphDomain = 0x67726170 // "grap"
	fpEdgeDomain  = 0x65646765 // "edge"
	fpJobDomain   = 0x6a6f6266 // "jobf"
)

// edgeTerm is one edge's contribution to a graph fingerprint: the hash of
// its (Src, Dst) pair mixed with unitWeightHash. The unit operand is what an
// edge weight of 1 contributed when graphs carried weights; folding it still
// keeps every fingerprint at its old value, so a job fingerprint persisted in
// a service journal matches its keyed resubmission across versions.
func edgeTerm(e graph.Edge) uint64 {
	return rng.Hash2Hashed(rng.Hash3(fpEdgeDomain, uint64(e.Src), uint64(e.Dst)), unitWeightHash)
}

// vertexTerm is the vertex-count contribution.
func vertexTerm(n int) uint64 {
	return rng.Hash2(fpGraphDomain, uint64(n))
}

// rescanFingerprint hashes a graph's full content. The edge terms combine by
// addition mod 2^64 — an incremental multiset hash — so the fingerprint
// identifies (vertex count, edge multiset) and a Delta can update it
// in O(|batch|) (see EvolveFingerprint) with a result identical to a rescan
// of the evolved graph. The deliberate trade: two graphs whose edge lists are
// permutations of each other share a fingerprint. Execution results depend
// only on the multiset, so a placement-cache hit across a permutation is
// sound for outputs; charged times reflect the cached stream order, which is
// the same blur dynamic rebalancing already introduces.
//
// The same order-freedom lets the scan shard: par.Ranges sums contiguous edge
// ranges into one slot per worker, and the result is bit-identical at every
// worker count.
func rescanFingerprint(g *graph.Graph) uint64 {
	n := len(g.Edges)
	sums := make([]uint64, par.Workers(n))
	par.Ranges(n, func(w, lo, hi int) { sums[w] = edgeTermSum(g, lo, hi) })
	fp := vertexTerm(g.NumVertices)
	for _, s := range sums {
		fp += s
	}
	return fp
}

// unitWeightHash is the hashed unit weight operand of every edge term.
var unitWeightHash = rng.Hash64(uint64(math.Float32bits(1)))

// edgeTermSum is Σ edgeTerm over g.Edges[lo:hi] mod 2^64, with edgeTerm's
// hashes written out so that work shared between edges is done once:
// generated edge lists come grouped by source, so Hash3's inner
// Hash2(fpEdgeDomain, src) is recomputed only when the source changes.
func edgeTermSum(g *graph.Graph, lo, hi int) uint64 {
	var sum uint64
	src, srcHash := graph.VertexID(0), rng.Hash2(fpEdgeDomain, 0)
	for _, e := range g.Edges[lo:hi] {
		if e.Src != src {
			src, srcHash = e.Src, rng.Hash2(fpEdgeDomain, uint64(e.Src))
		}
		sum += rng.Hash2Hashed(rng.Hash2(srcHash, uint64(e.Dst)), unitWeightHash)
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
	fpMemo = map[weak.Pointer[graph.Graph]]fpEntry{}
)

// fpEntry is one memoized fingerprint and the cleanup that evicts it when its
// graph is collected; ReleaseGraphFingerprint stops the cleanup, so a graph
// released and fingerprinted again carries one cleanup, not one per release.
type fpEntry struct {
	fp      uint64
	cleanup runtime.Cleanup
}

// GraphFingerprint hashes a graph's content (vertex count, edge multiset)
// into a stable 64-bit fingerprint, memoized per graph object. A nil graph
// fingerprints to 0. Graphs are immutable after construction, which is what
// makes the memo sound; evolved versions are new objects whose
// fingerprints the Delta path registers via EvolveFingerprint.
func GraphFingerprint(g *graph.Graph) uint64 {
	if g == nil {
		return 0
	}
	w := weak.Make(g)
	fpMu.Lock()
	if e, ok := fpMemo[w]; ok {
		fpMu.Unlock()
		return e.fp
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
	fpMemo[w] = fpEntry{fp: fp, cleanup: runtime.AddCleanup(g, func(key weak.Pointer[graph.Graph]) {
		fpMu.Lock()
		delete(fpMemo, key)
		fpMu.Unlock()
	}, w)}
}

// ReleaseGraphFingerprint drops g's memoized fingerprint immediately — the
// explicit invalidation hook for callers retiring a graph before the garbage
// collector would notice (e.g. a service evicting a tenant's graphs on
// deadline). Safe to call for graphs that were never fingerprinted. The
// entry's collection-time cleanup is stopped with it.
func ReleaseGraphFingerprint(g *graph.Graph) {
	if g == nil {
		return
	}
	w := weak.Make(g)
	fpMu.Lock()
	if e, ok := fpMemo[w]; ok {
		e.cleanup.Stop()
		delete(fpMemo, w)
	}
	fpMu.Unlock()
}

// EvolveFingerprint returns evolved's content fingerprint computed from
// base's memoized fingerprint and the batch alone — O(|batch|) hashing
// instead of an O(|E|) rescan — and memoizes it for evolved so the Delta path
// updates the memo rather than rescanning. The result is bit-identical to
// GraphFingerprint(evolved): the multiset hash makes "chain over the batch"
// and "rescan the result" the same number.
//
// The error is always nil. It stays in the signature until the callers that
// check it, the placement cache and the benchmark harness, drop those checks
// in the same change.
func EvolveFingerprint(base *graph.Graph, d *graph.Delta, evolved *graph.Graph) (uint64, error) {
	fp := GraphFingerprint(base)
	for _, e := range d.Deletes {
		fp -= edgeTerm(e)
	}
	for _, e := range d.Inserts {
		fp += edgeTerm(e)
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
