package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// specGraphs are the finalization inputs that stress a counting pass
// differently: uniform keys, one key carrying nearly every record, repeated
// records, keys with no records at all, and records whose two ends coincide
// (NewPlacement accepts self-loops even though generators never emit them).
func specGraphs() []*graph.Graph {
	random := testGraph(17, 300, 2400)
	random.Name = "random"

	star := &graph.Graph{Name: "star", NumVertices: 200}
	for v := 1; v < 200; v++ {
		e := graph.Edge{Src: 0, Dst: graph.VertexID(v)}
		if v%3 == 0 {
			e = graph.Edge{Src: graph.VertexID(v), Dst: 0}
		}
		star.Edges = append(star.Edges, e)
	}

	multi := &graph.Graph{Name: "multi-edge", NumVertices: 40}
	for i := 0; i < 600; i++ {
		u := graph.VertexID(rng.Hash2(3, uint64(i)) % 8)
		v := graph.VertexID(8 + rng.Hash2(5, uint64(i))%4)
		multi.Edges = append(multi.Edges, graph.Edge{Src: u, Dst: v})
	}

	// Every edge stays below vertex 70 of 500, and vertex 65 is skipped, so
	// whole bitmap words and single bits inside a used word stay empty.
	isolated := &graph.Graph{Name: "isolated-vertices", NumVertices: 500}
	for i := 0; i < 400; i++ {
		u := graph.VertexID(rng.Hash2(7, uint64(i)) % 70)
		v := graph.VertexID(rng.Hash2(9, uint64(i)) % 70)
		if u == 65 || v == 65 || u == v {
			continue
		}
		isolated.Edges = append(isolated.Edges, graph.Edge{Src: u, Dst: v})
	}

	loops := testGraph(23, 90, 500)
	loops.Name = "self-loops"
	for v := 0; v < 90; v += 7 {
		at := (v * 5) % len(loops.Edges)
		loop := graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v)}
		loops.Edges = slices.Insert(loops.Edges, at, loop, loop)
	}

	return []*graph.Graph{random, star, multi, isolated, loops}
}

// hashedOwner spreads edges over m machines unevenly (machine 0 gets about a
// third), so blocks differ in size and some machines of 64 own nothing.
func hashedOwner(g *graph.Graph, m int) []Machine {
	owner := make([]Machine, len(g.Edges))
	for i := range owner {
		if h := rng.Hash2(41, uint64(i)); h%3 != 0 {
			owner[i] = Machine(h / 3 % uint64(m))
		}
	}
	return owner
}

// specLayout is one machine's gather layout in one direction as the spec
// states it: both groupings of its records and byDst's visit order.
type specLayout struct {
	byDst, bySrc graph.Grouped
	visit        []uint8
}

// specBlock is the naive statement of what compileIn, compileBoth and
// groupBySource must produce for machine p: expand the machine's edges into
// gather records in local-edge order, then stable-sort them by the grouping
// key.
func specBlock(pl *Placement, p int, both bool) specLayout {
	type record struct{ into, from graph.VertexID }
	var records []record
	for i, e := range pl.G.Edges {
		if pl.EdgeOwner[i] != Machine(p) {
			continue
		}
		records = append(records, record{into: e.Dst, from: e.Src})
		if both {
			records = append(records, record{into: e.Src, from: e.Dst})
		}
	}
	group := func(key, val func(record) graph.VertexID) graph.Grouped {
		sorted := slices.Clone(records)
		sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
		g := graph.Grouped{Keys: []graph.VertexID{}, Offs: []int32{0}, Vals: []graph.VertexID{}}
		for i, r := range sorted {
			if i == 0 || key(r) != key(sorted[i-1]) {
				g.Keys = append(g.Keys, key(r))
				g.Offs = append(g.Offs, g.Offs[len(g.Offs)-1])
			}
			g.Offs[len(g.Offs)-1]++
			g.Vals = append(g.Vals, val(r))
		}
		return g
	}
	into := func(r record) graph.VertexID { return r.into }
	from := func(r record) graph.VertexID { return r.from }
	b := specLayout{byDst: group(into, from), bySrc: group(from, into)}
	b.visit = specVisit(pl, p, b.byDst)
	return b
}

// specVisit is the naive statement of machine p's visit order over byDst:
// per window of 128 consecutive groups, the window's indices stably sorted by
// min(group size, 16), each with the top bit set when its key is mastered on
// another machine.
func specVisit(pl *Placement, p int, byDst graph.Grouped) []uint8 {
	visit := []uint8{}
	for base := 0; base < len(byDst.Keys); base += 128 {
		var window []int
		for i := base; i < min(base+128, len(byDst.Keys)); i++ {
			window = append(window, i)
		}
		class := func(i int) int32 { return min(byDst.Offs[i+1]-byDst.Offs[i], 16) }
		sort.SliceStable(window, func(a, b int) bool { return class(window[a]) < class(window[b]) })
		for _, i := range window {
			v := uint8(i - base)
			if pl.Master[byDst.Keys[i]] != Machine(p) {
				v |= 0x80
			}
			visit = append(visit, v)
		}
	}
	return visit
}

// TestCompileBlocksMatchesStableSortSpec pins the counting-pass compile to the
// stable sort it stands for, field by field, and checks that every compiled
// slice was allocated at its final size. Both groupings are fetched the way a
// run fetches them, through blocks and the lazy sources, on a fresh placement
// per worker count so each compile runs at that count.
func TestCompileBlocksMatchesStableSortSpec(t *testing.T) {
	checkGrouped := func(t *testing.T, what string, got, want graph.Grouped) {
		t.Helper()
		if !slices.Equal(got.Keys, want.Keys) {
			t.Fatalf("%s.Keys\n got %v\nwant %v", what, got.Keys, want.Keys)
		}
		if !slices.Equal(got.Offs, want.Offs) {
			t.Fatalf("%s.Offs\n got %v\nwant %v", what, got.Offs, want.Offs)
		}
		if !slices.Equal(got.Vals, want.Vals) {
			t.Fatalf("%s.Vals\n got %v\nwant %v", what, got.Vals, want.Vals)
		}
		if len(got.Keys) != cap(got.Keys) || len(got.Offs) != cap(got.Offs) || len(got.Vals) != cap(got.Vals) {
			t.Fatalf("%s over-allocated: Keys %d/%d, Offs %d/%d, Vals %d/%d", what,
				len(got.Keys), cap(got.Keys), len(got.Offs), cap(got.Offs), len(got.Vals), cap(got.Vals))
		}
	}
	// Some block must span more than one visit window and end in a partial
	// one, or the window arithmetic goes untested.
	partialWindow := false
	for _, g := range specGraphs() {
		for _, machines := range []int{1, 3, 4, 64} {
			owner := hashedOwner(g, machines)
			placement := func(t *testing.T) *Placement {
				pl, err := NewPlacement(g, owner, machines)
				if err != nil {
					t.Fatalf("%s on %d machines: %v", g.Name, machines, err)
				}
				return pl
			}
			specPl := placement(t)
			for _, both := range []bool{false, true} {
				want := make([]specLayout, machines)
				for p := range want {
					want[p] = specBlock(specPl, p, both)
					k := len(want[p].byDst.Keys)
					partialWindow = partialWindow || k > visitWindow && k%visitWindow != 0
				}
				for _, workers := range []int{1, 2, 7} {
					t.Run(fmt.Sprintf("%s/machines=%d/both=%v/workers=%d", g.Name, machines, both, workers), func(t *testing.T) {
						withProcs(t, workers)
						pl := placement(t)
						got := pl.blocks(both)
						for p := range want {
							// GatherBoth's source grouping is its byDst.
							bySrc := got[p].byDst
							if !both {
								bySrc = pl.sources()[p]
							}
							checkGrouped(t, fmt.Sprintf("machine %d byDst", p), got[p].byDst, want[p].byDst)
							checkGrouped(t, fmt.Sprintf("machine %d bySrc", p), bySrc, want[p].bySrc)
							if !slices.Equal(got[p].visit, want[p].visit) {
								t.Fatalf("machine %d visit\n got %v\nwant %v", p, got[p].visit, want[p].visit)
							}
							if len(got[p].visit) != cap(got[p].visit) {
								t.Fatalf("machine %d visit over-allocated: %d/%d", p, len(got[p].visit), cap(got[p].visit))
							}
						}
					})
				}
			}
		}
	}
	if !partialWindow {
		t.Fatal("no spec case has a block of more than one visit window ending in a partial window")
	}
}

// TestMasterSelectionMatchesReservoirSpec pins NewPlacement's master table to
// the serial reservoir sample that defines it: walk the edge stream, number
// each vertex's incidences (Src before Dst), and let incidence i take the
// mastership over when Hash2(v, i) mod i is zero.
func TestMasterSelectionMatchesReservoirSpec(t *testing.T) {
	for _, g := range specGraphs() {
		for _, machines := range []int{1, 3, 4, 64} {
			owner := hashedOwner(g, machines)
			pl, err := NewPlacement(g, owner, machines)
			if err != nil {
				t.Fatalf("%s on %d machines: %v", g.Name, machines, err)
			}

			master := make([]Machine, g.NumVertices)
			incidences := make([]int32, g.NumVertices)
			pickMaster := func(v graph.VertexID, p Machine) {
				incidences[v]++
				if rng.Hash2(uint64(v), uint64(incidences[v]))%uint64(incidences[v]) == 0 {
					master[v] = p
				}
			}
			for i, p := range owner {
				e := g.Edges[i]
				pickMaster(e.Src, p)
				pickMaster(e.Dst, p)
			}
			masterVerts := make([][]graph.VertexID, machines)
			for v := range master {
				if incidences[v] == 0 {
					master[v] = Machine(rng.Hash64(uint64(v)) % uint64(machines))
				}
				masterVerts[master[v]] = append(masterVerts[master[v]], graph.VertexID(v))
			}

			if !slices.Equal(pl.Master, master) {
				t.Fatalf("%s on %d machines: Master\n got %v\nwant %v", g.Name, machines, pl.Master, master)
			}
			for p := range masterVerts {
				if !slices.Equal(pl.MasterVerts[p], masterVerts[p]) {
					t.Fatalf("%s on %d machines: MasterVerts[%d]\n got %v\nwant %v", g.Name, machines, p, pl.MasterVerts[p], masterVerts[p])
				}
				if len(pl.MasterVerts[p]) != cap(pl.MasterVerts[p]) {
					t.Fatalf("%s on %d machines: machine %d's MasterVerts can grow into its neighbour's", g.Name, machines, p)
				}
			}
		}
	}
}

// TestNewPlacementAllocs is finalization's allocation guard (same shape as
// TestRunAllocs and partition's TestIngressAllocs): NewPlacement allocates
// the same few objects whatever the machine count, and the first compile of
// each gather layout a number fixed by the machine count — every slice is
// sized before it is filled — so an eight-times-larger graph costs not one
// allocation more.
//
// testing.AllocsPerRun pins GOMAXPROCS to one, so the compiles run on one
// worker. Measured for m machines: 6 for NewPlacement; 7+4m for the first
// blocks(false) and 7+3m for its lazy source grouping, sources(); 7+4m for
// the first blocks(true). Each compile's 7 include its transient
// group-by-owner arena.
func TestNewPlacementAllocs(t *testing.T) {
	type allocs struct{ finalize, in, inSrc, both float64 }
	measure := func(g *graph.Graph, machines int) allocs {
		owner := hashedOwner(g, machines)
		// after counts the allocations of a fresh placement followed by the
		// given compiles.
		after := func(compiles ...func(*Placement)) float64 {
			return testing.AllocsPerRun(5, func() {
				pl, err := NewPlacement(g, owner, machines)
				if err != nil {
					t.Fatal(err)
				}
				for _, compile := range compiles {
					compile(pl)
				}
			})
		}
		in := func(pl *Placement) { pl.blocks(false) }
		inSrc := func(pl *Placement) { pl.sources() }
		both := func(pl *Placement) { pl.blocks(true) }
		finalize := after()
		withIn, withBoth := after(in), after(both)
		return allocs{
			finalize: finalize,
			in:       withIn - finalize,
			inSrc:    after(in, inSrc) - withIn,
			both:     withBoth - finalize,
		}
	}
	small, large := testGraph(5, 2000, 8000), testGraph(6, 2000, 64000)
	// The process's first collection starts the background mark workers; have
	// it happen here, not inside whichever measurement first fills the heap.
	runtime.GC()
	for _, machines := range []int{4, 16} {
		got := measure(small, machines)
		t.Logf("%d machines: NewPlacement %.0f allocations; first blocks(false) %.0f, then sources() %.0f; first blocks(true) %.0f",
			machines, got.finalize, got.in, got.inSrc, got.both)
		for _, c := range []struct {
			what         string
			got, ceiling float64
		}{
			{"NewPlacement", got.finalize, 6},
			{"the first blocks(false)", got.in, float64(7 + 4*machines)},
			{"the first sources()", got.inSrc, float64(7 + 3*machines)},
			{"the first blocks(true)", got.both, float64(7 + 4*machines)},
		} {
			if c.got > c.ceiling {
				t.Errorf("%d machines: %s allocates %.0f, want at most %.0f", machines, c.what, c.got, c.ceiling)
			}
		}
		if big := measure(large, machines); big != got {
			t.Errorf("%d machines: 8x the edges moved allocations from %+v to %+v: something grows with |E|", machines, got, big)
		}
	}
}

// TestNewPlacementBytes pins what finalization allocates to its per-vertex
// tables: ReplicaMask 8 B, Master 1 B and the MasterVerts arena 4 B, plus
// 16 KiB for the placement itself and its per-machine slices. Nothing is
// charged per edge: the caller's owner vector is kept, not copied. A
// four-byte Master would add 3 B per vertex and fail.
func TestNewPlacementBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews bytes/op")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := gen.Generate(gen.Spec{
		Name: "alloc", Vertices: 20000, Edges: 160000, Kind: gen.KindPowerLaw,
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	const machines, runs = 8, 5
	owner := moduloOwner(g, machines)
	finalize := func() {
		if _, err := NewPlacement(g, owner, machines); err != nil {
			t.Fatal(err)
		}
	}
	finalize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		finalize()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	const perVertex = 8 + 1 + 4
	ceiling := uint64(perVertex*g.NumVertices + 16<<10)
	t.Logf("%d vertices, %d edges on %d machines: %d bytes per NewPlacement, ceiling %d", g.NumVertices, len(g.Edges), machines, got, ceiling)
	if got > ceiling {
		t.Errorf("NewPlacement allocates %d bytes, want at most %d·|V| + 16 KiB = %d", got, perVertex, ceiling)
	}
}

// FuzzNewPlacement checks finalization against its contract on arbitrary
// owner vectors: it fails exactly when the machine count is outside
// [1, MaxMachines] or some owner is not below it, and otherwise every edge is
// counted once, replicated on both endpoints under its owner, every vertex
// with edges is mastered on one of its replicas, MasterVerts lists every
// vertex once, under its master, and both directions' compiled gather layouts
// match specBlock. The graph is a pure function of the owner vector's length,
// with isolated vertices and self-loops.
func FuzzNewPlacement(f *testing.F) {
	f.Add(byte(4), []byte{0, 1, 2, 3, 3, 2, 1, 0})
	f.Add(byte(1), []byte{})
	f.Add(byte(0), []byte{0})
	f.Add(byte(65), []byte{0, 1})
	f.Add(byte(64), []byte{63, 0, 17})
	f.Add(byte(2), []byte{0, 2})
	f.Add(byte(2), []byte{1, 255})
	f.Fuzz(func(t *testing.T, m byte, raw []byte) {
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		n := len(raw)/2 + 3
		g := &graph.Graph{Name: "fuzz", NumVertices: n}
		owner := make([]Machine, len(raw))
		valid := m >= 1 && int(m) <= MaxMachines
		for i, b := range raw {
			g.Edges = append(g.Edges, graph.Edge{
				Src: graph.VertexID(rng.Hash2(1, uint64(i)) % uint64(n)),
				Dst: graph.VertexID(rng.Hash2(2, uint64(i)) % uint64(n)),
			})
			owner[i] = Machine(b)
			valid = valid && b < m
		}
		pl, err := NewPlacement(g, owner, int(m))
		if (err == nil) != valid {
			t.Fatalf("m=%d owner=%v: error %v, want error %t", m, raw, err, !valid)
		}
		if err != nil {
			return
		}
		var total int64
		for _, c := range pl.EdgeCounts() {
			total += c
		}
		if total != int64(len(g.Edges)) {
			t.Fatalf("EdgeCounts sum to %d, want %d", total, len(g.Edges))
		}
		for i, e := range g.Edges {
			bit := uint64(1) << owner[i]
			if pl.ReplicaMask[e.Src]&bit == 0 || pl.ReplicaMask[e.Dst]&bit == 0 {
				t.Fatalf("edge %d %v on machine %d: endpoint masks %b, %b", i, e, owner[i], pl.ReplicaMask[e.Src], pl.ReplicaMask[e.Dst])
			}
		}
		for v, mask := range pl.ReplicaMask {
			if int(pl.Master[v]) >= pl.M {
				t.Fatalf("vertex %d mastered on machine %d of %d", v, pl.Master[v], pl.M)
			}
			if mask != 0 && mask&(1<<pl.Master[v]) == 0 {
				t.Fatalf("vertex %d mastered on %d outside its replicas %b", v, pl.Master[v], mask)
			}
		}
		listed := make([]int, n)
		for p, vs := range pl.MasterVerts {
			for _, v := range vs {
				if pl.Master[v] != Machine(p) {
					t.Fatalf("vertex %d listed under machine %d, mastered on %d", v, p, pl.Master[v])
				}
				listed[v]++
			}
		}
		for v, c := range listed {
			if c != 1 {
				t.Fatalf("vertex %d listed %d times in MasterVerts", v, c)
			}
		}
		for _, both := range []bool{false, true} {
			for p, b := range pl.blocks(both) {
				want := specBlock(pl, p, both)
				if !groupedEqual(b.byDst, want.byDst) {
					t.Fatalf("both=%v: machine %d byDst differs from the stable sort", both, p)
				}
				if !slices.Equal(b.visit, want.visit) {
					t.Fatalf("both=%v: machine %d visit\n got %v\nwant %v", both, p, b.visit, want.visit)
				}
			}
		}
	})
}
