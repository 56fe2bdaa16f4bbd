package partition

import (
	"runtime"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/rng"
)

// withProcs runs the rest of the test at GOMAXPROCS n — the only thing the
// sharded scans' worker count depends on — and restores it afterwards.
func withProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// diffShareVectors are the share shapes the differential suite sweeps: the
// homogeneous baseline and a CCR-like skew (Case 2's 1:3.5 extended).
func diffShareVectors(t *testing.T, m int) [][]float64 {
	t.Helper()
	vectors := [][]float64{UniformShares(m)}
	if m > 1 {
		weights := make([]float64, m)
		for i := range weights {
			weights[i] = 1 + 2.5*float64(i)/float64(m-1)
		}
		skewed, err := NormalizeShares(weights)
		if err != nil {
			t.Fatal(err)
		}
		vectors = append(vectors, skewed)
	}
	return vectors
}

// TestIngressDifferential pins the production partitioners to their
// sequential executable specs: random, hybrid, ginger, oblivious and hdrf
// must produce bit-identical owner vectors to reference.go at every
// GOMAXPROCS, machine count and share shape, and every partitioner (grid
// included) must be invariant to the worker count.
func TestIngressDifferential(t *testing.T) {
	g := testGraph(t, 71, 800, 6400)
	const seed = 101
	for _, m := range []int{1, 2, 4, 7, 8} {
		for si, shares := range diffShareVectors(t, m) {
			refs := map[string][]engine.Machine{
				"random":    referenceRandom(g, shares, seed),
				"hybrid":    referenceHybrid(NewHybrid(), g, shares, seed),
				"ginger":    referenceGinger(NewGinger(), g, shares, seed),
				"oblivious": referenceOblivious(g, shares),
				"hdrf":      referenceHDRF(NewHDRF(), g, shares, seed),
			}
			// Baseline owner vectors, shared across every worker count: the
			// host's core count must never change a single edge.
			base := map[string][]engine.Machine{}
			for _, procs := range []int{1, 2, 3, 8} {
				withProcs(t, procs)
				for _, p := range WithExtensions() {
					owner, err := p.Partition(g, shares, seed)
					if err != nil {
						t.Fatalf("%s/m=%d/shares=%d/procs=%d: %v", p.Name(), m, si, procs, err)
					}
					if want, ok := refs[p.Name()]; ok {
						for i := range owner {
							if owner[i] != want[i] {
								t.Fatalf("%s/m=%d/shares=%d/procs=%d: edge %d owner %d, reference %d",
									p.Name(), m, si, procs, i, owner[i], want[i])
							}
						}
					}
					if prev, ok := base[p.Name()]; !ok {
						base[p.Name()] = owner
					} else {
						for i := range owner {
							if owner[i] != prev[i] {
								t.Fatalf("%s/m=%d/shares=%d: procs %d changed edge %d (%d vs %d)",
									p.Name(), m, si, procs, i, owner[i], prev[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestPickerMatchesPick checks the quantized lookup against the binary-search
// contract on dense and adversarially tiny shares.
func TestPickerMatchesPick(t *testing.T) {
	vectors := [][]float64{
		{1},
		{0.5, 0.5},
		{0.001, 0.999},
		{0.999, 0.001},
	}
	for m := 2; m <= 64; m *= 2 {
		vectors = append(vectors, UniformShares(m))
		weights := make([]float64, m)
		for i := range weights {
			weights[i] = float64(i + 1)
		}
		skewed, err := NormalizeShares(weights)
		if err != nil {
			t.Fatal(err)
		}
		vectors = append(vectors, skewed)
	}
	for vi, shares := range vectors {
		pk := newPicker(shares)
		cum := cumulative(shares)
		for i := 0; i < 20000; i++ {
			h := rng.Hash2(uint64(vi), uint64(i))
			if got, want := pk.pick(h), pick(cum, h); got != want {
				t.Fatalf("shares %v hash %#x: picker %d, pick %d", shares, h, got, want)
			}
		}
		// Boundary hashes: u exactly at bucket edges and cumulative points.
		for _, h := range []uint64{0, ^uint64(0), 1 << 11, (1 << 63) + (1 << 11)} {
			if got, want := pk.pick(h), pick(cum, h); got != want {
				t.Fatalf("shares %v boundary hash %#x: picker %d, pick %d", shares, h, got, want)
			}
		}
	}
}

// TestUnionBest is the regression test for the grid fallback: the old
// append(su, sv...) both aliased the cached constraint slice (when su had
// spare capacity, appending overwrote the cache's backing array) and scored
// machines in su ∩ sv twice. unionBest must score each machine exactly once
// and never write through its arguments.
func TestUnionBest(t *testing.T) {
	// su has spare capacity: append(su, sv...) would have clobbered backing[2].
	backing := []int32{0, 1, 99}
	su := backing[:2]
	sv := []int32{1, 2}
	inSet := make([]bool, 4)
	for _, p := range su {
		inSet[p] = true
	}
	calls := map[int32]int{}
	score := func(p int32) float64 {
		calls[p]++
		return float64(p) // machine 2 wins
	}
	if best := unionBest(su, sv, inSet, score); best != 2 {
		t.Fatalf("unionBest = %d, want 2", best)
	}
	if backing[2] != 99 {
		t.Fatalf("unionBest wrote through its argument: backing = %v", backing)
	}
	for p, n := range calls {
		if n != 1 {
			t.Errorf("machine %d scored %d times, want exactly once", p, n)
		}
	}
	if len(calls) != 3 {
		t.Errorf("scored %d machines, want the 3 distinct members of the union", len(calls))
	}
}

// TestGridNonSquareMachineCounts exercises the shapes that use the fallback
// machinery: a 2x3 grid and a prime (1x7, pure weighted greedy).
func TestGridNonSquareMachineCounts(t *testing.T) {
	g := testGraph(t, 73, 600, 4800)
	for _, m := range []int{6, 7} {
		for si, shares := range diffShareVectors(t, m) {
			a, err := NewGrid().Partition(g, shares, 79)
			if err != nil {
				t.Fatalf("grid/m=%d/shares=%d: %v", m, si, err)
			}
			edgeShares(t, g, a, m) // validates ownership range
			b, err := NewGrid().Partition(g, shares, 79)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("grid/m=%d/shares=%d: nondeterministic at edge %d", m, si, i)
				}
			}
		}
	}
}

// TestHDRFSeedAffectsTieBreaks pins the seed semantics: HDRF is deterministic
// per seed, and distinct seeds resolve the early all-tied edges differently
// instead of always handing them to machine 0.
func TestHDRFSeedAffectsTieBreaks(t *testing.T) {
	g := testGraph(t, 77, 400, 3200)
	shares := UniformShares(4)
	h := NewHDRF()
	a1, err := h.Partition(g, shares, 1)
	if err != nil {
		t.Fatal(err)
	}
	a1again, err := h.Partition(g, shares, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a1again[i] {
			t.Fatalf("hdrf nondeterministic at edge %d for a fixed seed", i)
		}
	}
	// The first edge of the stream is a full tie (no replicas, all loads
	// zero): across a handful of seeds its placement must vary.
	first := map[engine.Machine]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		owner, err := h.Partition(g, shares, seed)
		if err != nil {
			t.Fatal(err)
		}
		first[owner[0]] = true
	}
	if len(first) < 2 {
		t.Errorf("first-edge placement identical across 8 seeds (%v): seed is still ignored", first)
	}
}
