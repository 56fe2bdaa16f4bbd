package engine

import (
	"slices"
	"testing"

	"proxygraph/internal/graph"
)

// signalInto appends vs to the frontier's worklist storage, the way
// Program.Apply extends the signal list the engine hands it.
func signalInto(f *frontier, vs ...graph.VertexID) []graph.VertexID {
	return append(f.list[:0], vs...)
}

// checkBits fails unless exactly the vertices of want are active.
func checkBits(t *testing.T, f *frontier, want []graph.VertexID) {
	t.Helper()
	on := map[graph.VertexID]bool{}
	for _, v := range want {
		on[v] = true
	}
	for v := range f.bits {
		if f.bits[v] != on[graph.VertexID(v)] {
			t.Fatalf("vertex %d active=%v, want %v", v, f.bits[v], on[graph.VertexID(v)])
		}
	}
	if f.count != len(want) {
		t.Fatalf("count = %d, want %d", f.count, len(want))
	}
}

// stride returns k vertices spaced step apart, descending, so sorted() has
// work to do.
func stride(k, step int) []graph.VertexID {
	vs := make([]graph.VertexID, k)
	for i := range vs {
		vs[i] = graph.VertexID((k - 1 - i) * step)
	}
	return vs
}

func TestFrontierTakeSparse(t *testing.T) {
	f := newFrontier(100)
	if f.count != 0 || !f.sparse() {
		t.Fatal("new frontier should be empty and sparse")
	}
	f.take(signalInto(&f, 42, 7, 3))
	if !f.sparse() {
		t.Fatal("a 3-vertex frontier of 100 should stay sparse")
	}
	checkBits(t, &f, []graph.VertexID{3, 7, 42})
	if got, want := f.sorted(), []graph.VertexID{3, 7, 42}; !slices.Equal(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}

	// The threshold is n/sparseFrontierDenom + 1 = 13: a list of exactly
	// that many is still sparse.
	f.clearBits()
	vs := stride(f.listCap, 7)
	f.take(signalInto(&f, vs...))
	if !f.sparse() {
		t.Fatalf("a frontier of listCap=%d vertices should stay sparse", f.listCap)
	}
	checkBits(t, &f, vs)
	want := slices.Sorted(slices.Values(vs))
	if got := f.sorted(); !slices.Equal(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
}

func TestFrontierTakeDense(t *testing.T) {
	const n = 80
	f := newFrontier(n)
	vs := stride(f.listCap+1, 3)
	f.take(signalInto(&f, vs...))
	if f.sparse() {
		t.Fatalf("a frontier of listCap+1=%d vertices of %d should be dense", len(vs), n)
	}
	checkBits(t, &f, vs)
}

func TestFrontierClearBits(t *testing.T) {
	const n = 80
	for _, k := range []int{3, n/sparseFrontierDenom + 1, n / 2, n} {
		f := newFrontier(n)
		f.take(signalInto(&f, stride(k, n/k)...))
		f.clearBits()
		for v := range f.bits {
			if f.bits[v] {
				t.Fatalf("%d active (sparse=%v): vertex %d survived clearBits", k, f.sparse(), v)
			}
		}
	}
	f := newFrontier(n)
	f.fill()
	f.clearBits()
	if slices.Contains(f.bits, true) {
		t.Fatal("clearBits left a filled frontier's bits set")
	}
}

// TestFrontierRestoreThenTake holds a restored frontier to the one it was
// checkpointed from, and to what the next superstep's clearBits and take
// leave behind: a restored worklist that missed an active vertex would leave
// its bit set.
func TestFrontierRestoreThenTake(t *testing.T) {
	const n = 80
	for _, k := range []int{0, 5, n/sparseFrontierDenom + 1, n / 2} {
		orig := newFrontier(n)
		orig.take(signalInto(&orig, stride(k, 2)...))

		f := newFrontier(n)
		f.fill()
		f.restore(orig.bits, orig.count)
		if f.sparse() != orig.sparse() || f.count != orig.count || !slices.Equal(f.bits, orig.bits) {
			t.Fatalf("%d active: restored count=%d sparse=%v, checkpointed %d/%v", k, f.count, f.sparse(), orig.count, orig.sparse())
		}
		if f.sparse() && !slices.Equal(f.sorted(), orig.sorted()) {
			t.Fatalf("%d active: restored worklist %v, checkpointed %v", k, f.sorted(), orig.sorted())
		}

		next := []graph.VertexID{1, 4, 9}
		f.clearBits()
		f.take(signalInto(&f, next...))
		checkBits(t, &f, next)
		if !f.sparse() {
			t.Fatalf("%d active: 3-vertex frontier after restore is dense", k)
		}
	}
}

func TestFrontierSeed(t *testing.T) {
	f := newFrontier(100)
	f.seed([]graph.VertexID{9, 2, 9, 50, 2})
	if !f.sparse() {
		t.Fatal("a 3-vertex seed of 100 should be sparse")
	}
	checkBits(t, &f, []graph.VertexID{2, 9, 50})
	if got, want := f.sorted(), []graph.VertexID{2, 9, 50}; !slices.Equal(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
}

func TestFrontierFill(t *testing.T) {
	f := newFrontier(10)
	f.fill()
	if f.count != 10 || f.sparse() {
		t.Fatalf("fill: count=%d sparse=%v", f.count, f.sparse())
	}
	for v := 0; v < 10; v++ {
		if !f.bits[v] {
			t.Fatalf("vertex %d inactive after fill", v)
		}
	}
}
