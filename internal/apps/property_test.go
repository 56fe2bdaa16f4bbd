package apps

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// propGraph builds a power-law graph from fuzz parameters.
func propGraph(t *testing.T, seed uint64, rawN, rawM uint16) *graph.Graph {
	t.Helper()
	n := 16 + int(rawN%400)
	m := 2*n + int(rawM)%(5*n)
	// The power-law fitter cannot hit every (n, avg degree) pair the fuzz
	// parameters propose; back the edge budget off until it can.
	for {
		g, err := gen.Generate(gen.Spec{
			Name: "prop", Vertices: int64(n), Edges: int64(m), Kind: gen.KindPowerLaw,
		}, seed)
		if err == nil {
			return g
		}
		if m <= 2*n {
			t.Fatal(err)
		}
		m -= n
	}
}

// TestPropertyPageRankInvariants: ranks are finite, at least (1-d), and the
// total mass never exceeds N (dangling mass can only leak, not appear).
func TestPropertyPageRankInvariants(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16) bool {
		g := propGraph(t, seed, rawN, rawM)
		res, err := NewPageRank().Run(engine.SingleMachine(g), singleCluster(t))
		if err != nil {
			return false
		}
		ranks := res.Output.([]float64)
		sum := 0.0
		for _, r := range ranks {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0.15-1e-12 {
				return false
			}
			sum += r
		}
		return sum <= float64(g.NumVertices)*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyComponentLabelsClosed: every edge's endpoints share a label
// and labels are fixed points (label of the label is itself).
func TestPropertyComponentLabelsClosed(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16) bool {
		g := propGraph(t, seed, rawN, rawM)
		res, err := NewConnectedComponents().Run(engine.SingleMachine(g), singleCluster(t))
		if err != nil {
			return false
		}
		labels := res.Output.(Components).Labels
		for _, e := range g.Edges {
			if labels[e.Src] != labels[e.Dst] {
				return false
			}
		}
		for v, l := range labels {
			if uint32(v) < l || labels[l] != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyColoringProper: the coloring is always conflict-free and
// bounded by maxDegree+1.
func TestPropertyColoringProper(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16, machines uint8) bool {
		g := propGraph(t, seed, rawN, rawM)
		m := 1 + int(machines%4)
		res, err := NewColoring().Run(moduloPlacement(t, g, m), multiCluster(t, m))
		if err != nil {
			return false
		}
		out := res.Output.(ColoringResult)
		if ValidateColoring(g, out.Colors) != nil {
			return false
		}
		return out.NumColors <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTriangleCountPlacementInvariant: the count never depends on
// the partitioning.
func TestPropertyTriangleCountPlacementInvariant(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16, machines uint8) bool {
		g := propGraph(t, seed, rawN, rawM)
		m := 1 + int(machines%5)
		a, err := NewTriangleCount().Run(engine.SingleMachine(g), singleCluster(t))
		if err != nil {
			return false
		}
		b, err := NewTriangleCount().Run(moduloPlacement(t, g, m), multiCluster(t, m))
		if err != nil {
			return false
		}
		return a.Output.(TriangleResult).Total == b.Output.(TriangleResult).Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertySSSPTriangleInequality: at the fixed point the endpoints of
// every edge (u,v) are both unreached or |dist(u) − dist(v)| <= 1, the unit
// hop, in either direction since relaxation is undirected.
func TestPropertySSSPTriangleInequality(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16) bool {
		g := propGraph(t, seed, rawN, rawM)
		res, err := NewSSSP().Run(engine.SingleMachine(g), singleCluster(t))
		if err != nil {
			return false
		}
		dist := res.Output.(SSSPResult).Dist
		for _, e := range g.Edges {
			du, dv := dist[e.Src], dist[e.Dst]
			if math.IsInf(du, 1) != math.IsInf(dv, 1) {
				return false
			}
			if !math.IsInf(du, 1) && math.Abs(du-dv) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyKCoreDegeneracyBound: every vertex's core number is at most
// its degree, and the max core is at most the max degree.
func TestPropertyKCoreDegeneracyBound(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16) bool {
		g := propGraph(t, seed, rawN, rawM)
		und := sortedUndirected(g)
		res, err := NewKCore().Run(engine.SingleMachine(g), singleCluster(t))
		if err != nil {
			return false
		}
		out := res.Output.(KCoreResult)
		for v, c := range out.Core {
			if int(c) > und.Degree(graph.VertexID(v)) {
				return false
			}
		}
		return out.MaxCore <= g.MaxDegree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFoldContract pins engine.Program.Fold for the four shipped
// programs: folding a whole source slice equals chaining one-element folds
// over its active sources — the form the sparse sweep and RunReference use —
// bit for bit, the count is the number of active sources, the value array is
// only read, and a group with nothing active hands acc back untouched. The
// integer programs mask inactive sources inside a second loop, so the bitmaps
// sweep the frontier densities and an all-true bitmap is held to the act ==
// nil result.
func TestPropertyFoldContract(t *testing.T) {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tc := range []struct {
		name  string
		check func(*testing.T, *rng.Source)
	}{
		{"pagerank", func(t *testing.T, src *rng.Source) {
			// Signed zeros and mixed magnitudes: 0+x and re-association would
			// both show in the bits.
			checkFold[prState, float64](t, NewPageRank(), src, sameBits, func() prState {
				rank := []float64{0, math.Copysign(0, -1), 1, src.NormFloat64(), 1e-9 * src.Float64(), 1e9 * src.Float64()}[src.Intn(6)]
				return prState{rank: rank, invOut: 1 / float64(1+src.Intn(9))}
			}, src.NormFloat64)
			// The first contribution is taken as is: starting from 0 would
			// turn a lone negative zero into a positive one.
			negZero := []prState{{rank: math.Copysign(0, -1), invOut: 1}}
			if got, _ := NewPageRank().Fold(7, false, negZero, []graph.VertexID{0}, nil); !sameBits(got, negZero[0].rank) {
				t.Fatalf("folding a lone -0 into an empty accumulator gave %v", got)
			}
		}},
		{"connected_components", func(t *testing.T, src *rng.Source) {
			label := func() uint32 { return uint32(src.Uint64()) >> uint(src.Intn(32)) }
			checkFold[uint32, uint32](t, NewConnectedComponents(), src, exact[uint32], label, label)
		}},
		{"bfs", func(t *testing.T, src *rng.Source) {
			dist := func() int32 { return int32(src.Intn(50)) - 1 } // unreached (-1) included
			checkFold[int32, int32](t, NewBFS(), src, exact[int32], dist, dist)
			// Unreached sources are gathers that offer nothing: the result
			// stays unreached while every active one is counted.
			vals := []int32{unreached, unreached, 3, unreached}
			srcs := []graph.VertexID{0, 1, 2, 3, 1}
			for _, has := range []bool{false, true} {
				if got, n := NewBFS().Fold(unreached, has, vals, srcs, []bool{true, true, false, true}); got != unreached || n != 4 {
					t.Fatalf("has=%v: four unreached active sources folded to %d over %d gathers, want %d over 4", has, got, n, unreached)
				}
			}
		}},
		{"cluster_bfs", func(t *testing.T, src *rng.Source) {
			checkFold[ClusterState, uint64](t, NewClusterBFS(), src, exact[uint64], func() ClusterState {
				st := ClusterState{Seen: src.Uint64() & src.Uint64()}
				for j := range st.Dist {
					st.Dist[j] = int32(src.Intn(9)) - 1
				}
				return st
			}, src.Uint64)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, rng.New(rng.HashString(tc.name))) })
	}
}

// checkFold draws random value arrays, source slices (duplicates allowed,
// length 0–40), activity bitmaps (nil, then 0, 10, 50, 90 and 100 % of the
// vertices active) and incoming accumulators, and holds prog.Fold to the
// contract on each.
func checkFold[V comparable, A any](t *testing.T, prog engine.Program[V, A], src *rng.Source, same func(a, b A) bool, state func() V, accum func() A) {
	densities := []int{-1, 0, 10, 50, 90, 100} // percent; -1 is act == nil
	for round := 0; round < 600; round++ {
		vals := make([]V, 1+src.Intn(24))
		for i := range vals {
			vals[i] = state()
		}
		srcs := make([]graph.VertexID, src.Intn(41))
		for i := range srcs {
			srcs[i] = graph.VertexID(src.Intn(len(vals)))
		}
		density := densities[round%len(densities)]
		var act []bool
		if density >= 0 {
			act = make([]bool, len(vals))
			for i := range act {
				act[i] = src.Intn(100) < density
			}
		}
		acc, has := accum(), round/len(densities)%2 == 0
		before := slices.Clone(vals)

		want, wantHas, active := acc, has, int32(0)
		for i, s := range srcs {
			if act != nil && !act[s] {
				continue
			}
			var n int32
			want, n = prog.Fold(want, wantHas, vals, srcs[i:i+1], nil)
			if n != 1 {
				t.Fatalf("round %d: a one-element fold counted %d sources", round, n)
			}
			wantHas = true
			active++
		}
		got, n := prog.Fold(acc, has, vals, srcs, act)
		if n != active {
			t.Fatalf("round %d: folded %d sources, %d of %d are active", round, n, active, len(srcs))
		}
		if !same(got, want) {
			t.Fatalf("round %d: whole-slice fold %v, one-element folds %v (has=%v, %d active of %d)", round, got, want, has, active, len(srcs))
		}
		if density == 100 {
			if plain, pn := prog.Fold(acc, has, vals, srcs, nil); pn != n || !same(plain, got) {
				t.Fatalf("round %d: an all-true bitmap folded to %v over %d sources, act == nil to %v over %d", round, got, n, plain, pn)
			}
		}
		if active == 0 && !same(got, acc) {
			t.Fatalf("round %d: nothing to fold, yet acc %v came back as %v", round, acc, got)
		}
		if other, _ := prog.Fold(accum(), false, vals, srcs, act); !has && active > 0 && !same(got, other) {
			t.Fatalf("round %d: an empty accumulator's content leaked into the fold: %v vs %v", round, got, other)
		}
		if !slices.Equal(vals, before) {
			t.Fatalf("round %d: Fold wrote the value array", round)
		}
	}
}

// TestPropertyApplyContract pins engine.Program.Apply for the four shipped
// programs the way TestPropertyFoldContract pins Fold: one call over a whole
// vertex list equals the same list applied one vertex at a time — the form
// RunReference uses — and split at a random point and chained, states bit for
// bit and the same vertices signalled; acc, has and every vertex outside the
// list are only read. The frontier programs leave a vertex that gathered
// nothing alone. has sweeps the frontier densities, and acc holds garbage
// where has is false: it is meaningful only where has[v].
func TestPropertyApplyContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(*testing.T, *rng.Source)
	}{
		{"pagerank", func(t *testing.T, src *rng.Source) {
			// Ranks within and beyond Tolerance of what the accumulator gives,
			// so both sides of the signal test are drawn.
			checkApply[prState, float64](t, NewPageRank(), src, false, sameRank, func() prState {
				return prState{rank: 0.15 + 0.85*float64(src.Intn(4)) + 2e-3*src.NormFloat64(), invOut: 1 / float64(1+src.Intn(9))}
			}, func() float64 { return float64(src.Intn(4)) })
			// A vertex that gathered nothing has an empty sum, whatever its
			// accumulator slot still holds.
			pr, vals := NewPageRank(), []prState{{rank: 3, invOut: 1}}
			sig := pr.Apply([]graph.VertexID{0}, vals, []float64{7}, []bool{false}, &engine.Runtime{}, nil)
			if want := 1 - pr.Damping; vals[0].rank != want || vals[0].invOut != 1 || len(sig) != 1 {
				t.Fatalf("a vertex without gathers came out as %+v (signalled %v), want rank %v", vals[0], sig, want)
			}
		}},
		{"connected_components", func(t *testing.T, src *rng.Source) {
			label := func() uint32 { return uint32(src.Intn(12)) }
			checkApply[uint32, uint32](t, NewConnectedComponents(), src, true, exact[uint32], label, label)
		}},
		{"bfs", func(t *testing.T, src *rng.Source) {
			dist := func() int32 { return int32(src.Intn(8)) - 1 } // unreached (-1) included
			checkApply[int32, int32](t, NewBFS(), src, true, exact[int32], dist, dist)
		}},
		{"cluster_bfs", func(t *testing.T, src *rng.Source) {
			checkApply[ClusterState, uint64](t, NewClusterBFS(), src, true, exact[ClusterState], func() ClusterState {
				st := ClusterState{Seen: src.Uint64() & src.Uint64()}
				for j := range st.Dist {
					st.Dist[j] = int32(src.Intn(9)) - 1
				}
				return st
			}, func() uint64 { return src.Uint64() & src.Uint64() })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, rng.New(rng.HashString(tc.name))) })
	}
}

// sameRank compares two PageRank states bit for bit.
func sameRank(a, b prState) bool {
	return math.Float64bits(a.rank) == math.Float64bits(b.rank) && math.Float64bits(a.invOut) == math.Float64bits(b.invOut)
}

// checkApply draws random value, accumulator and has arrays (0, 10, 50, 90 and
// 100 % of the vertices gathered), a list of distinct vertices in random order
// and a signal slice that already holds entries (with and without spare
// capacity), and holds prog.Apply to the contract on each.
func checkApply[V any, A comparable](t *testing.T, prog engine.Program[V, A], src *rng.Source, frontier bool, same func(a, b V) bool, state func() V, accum func() A) {
	densities := []int{0, 10, 50, 90, 100}
	for round := 0; round < 500; round++ {
		n := 1 + src.Intn(48)
		vals, acc, has := make([]V, n), make([]A, n), make([]bool, n)
		for v := range vals {
			vals[v], acc[v] = state(), accum()
			has[v] = src.Intn(100) < densities[round%len(densities)]
		}
		vs := make([]graph.VertexID, src.Intn(n+1))
		inList := make([]bool, n)
		for i, v := range src.Perm(n)[:len(vs)] {
			vs[i], inList[v] = graph.VertexID(v), true
		}
		// Entries already in signal must survive; n is no vertex, so they
		// cannot be confused with a signalled one.
		prefix := make([]graph.VertexID, src.Intn(3), 3+(round%2)*n)
		for i := range prefix {
			prefix[i] = graph.VertexID(n)
		}
		rt := &engine.Runtime{Step: src.Intn(20)}
		accBefore, hasBefore := slices.Clone(acc), slices.Clone(has)

		whole := slices.Clone(vals)
		wholeSig := prog.Apply(vs, whole, acc, has, rt, slices.Clone(prefix))
		single, singleSig := slices.Clone(vals), slices.Clone(prefix)
		for i := range vs {
			singleSig = prog.Apply(vs[i:i+1], single, acc, has, rt, singleSig)
		}
		cut := src.Intn(len(vs) + 1)
		split := slices.Clone(vals)
		splitSig := prog.Apply(vs[:cut], split, acc, has, rt, slices.Clone(prefix))
		splitSig = prog.Apply(vs[cut:], split, acc, has, rt, splitSig)

		if !slices.Equal(wholeSig, singleSig) || !slices.Equal(wholeSig, splitSig) {
			t.Fatalf("round %d: signalled %v in one call, %v one vertex at a time, %v split at %d", round, wholeSig, singleSig, splitSig, cut)
		}
		if !slices.Equal(wholeSig[:len(prefix)], prefix) {
			t.Fatalf("round %d: Apply rewrote the entries signal already held: %v", round, wholeSig)
		}
		signalled := make([]bool, n)
		for _, v := range wholeSig[len(prefix):] {
			if int(v) >= n || !inList[v] || signalled[v] {
				t.Fatalf("round %d: signalled %v, not once each from the list %v", round, wholeSig[len(prefix):], vs)
			}
			signalled[v] = true
		}
		for v := range vals {
			if !same(whole[v], single[v]) || !same(whole[v], split[v]) {
				t.Fatalf("round %d: vertex %d is %v after one call, %v one vertex at a time, %v split at %d", round, v, whole[v], single[v], split[v], cut)
			}
			if !inList[v] && !same(whole[v], vals[v]) {
				t.Fatalf("round %d: vertex %d is not in the list, yet %v became %v", round, v, vals[v], whole[v])
			}
			if frontier && !has[v] && (signalled[v] || !same(whole[v], vals[v])) {
				t.Fatalf("round %d: vertex %d gathered nothing, yet %v became %v (signalled: %v)", round, v, vals[v], whole[v], signalled[v])
			}
		}
		if !slices.Equal(acc, accBefore) || !slices.Equal(has, hasBefore) {
			t.Fatalf("round %d: Apply wrote acc or has", round)
		}
	}
}

// TestPropertyInitContract pins engine.Program.Init for the shipped programs
// and both Resume variants: filling the zeroed value array in one call equals
// the per-vertex definition — PageRank's invOut the bits of 1/float64(out-
// degree), every ClusterBFS lane, and the warm starts with a prior shorter
// than |V| (the delta grew the ID space).
func TestPropertyInitContract(t *testing.T) {
	f := func(seed uint64, rawN, rawM uint16) bool {
		g := propGraph(t, seed, rawN, rawM)
		n := g.NumVertices
		src := rng.New(seed)
		outDeg := g.OutDegrees()
		short := n - 1 - src.Intn(n/2) // the priors' length

		wantRank := func(v int, rank float64) prState {
			s := prState{rank: rank}
			if outDeg[v] > 0 {
				s.invOut = 1 / float64(outDeg[v])
			}
			return s
		}
		ok := initEquals(t, "pagerank", NewPageRank(), g, sameRank, func(v int) prState { return wantRank(v, 1) })

		ranks := make([]float64, short)
		for v := range ranks {
			ranks[v] = 0.15 + 3*src.Float64()
		}
		ok = initEquals(t, "pagerank_resume", NewPageRank().Resume(ranks), g, sameRank, func(v int) prState {
			if v < short {
				return wantRank(v, ranks[v])
			}
			return wantRank(v, 1)
		}) && ok

		ok = initEquals(t, "connected_components", NewConnectedComponents(), g, exact[uint32], func(v int) uint32 { return uint32(v) }) && ok

		// A prior labelling of the first short vertices and a delta deleting
		// a few of the graph's edges: members of a touched component reset.
		prior := make([]uint32, short)
		for v := range prior {
			prior[v] = uint32(src.Intn(v + 1))
		}
		d := &graph.Delta{}
		for i := 0; i < 3; i++ {
			d.Deletes = append(d.Deletes, g.Edges[src.Intn(len(g.Edges))])
		}
		resume := NewConnectedComponents().Resume(prior, d, g)
		ok = initEquals(t, "connected_components_resume", resume, g, exact[uint32], func(v int) uint32 {
			if v < short && resume.flags[v]&flagReset == 0 {
				return prior[v]
			}
			return uint32(v)
		}) && ok

		bfs := &BFS{Source: graph.VertexID(src.Intn(n)), MaxIters: 10}
		ok = initEquals(t, "bfs", bfs, g, exact[int32], func(v int) int32 {
			if graph.VertexID(v) == bfs.Source {
				return 0
			}
			return unreached
		}) && ok

		// Fewer lanes than 64 leave the rest unreached everywhere; a root
		// drawn twice owns both of its lanes.
		batch := &ClusterBFS{Sources: make([]graph.VertexID, 1+src.Intn(MaxBatchSources)), MaxIters: 10}
		for j := range batch.Sources {
			batch.Sources[j] = graph.VertexID(src.Intn(n))
		}
		return initEquals(t, "cluster_bfs", batch, g, exact[ClusterState], func(v int) ClusterState {
			var st ClusterState
			for j := range st.Dist {
				st.Dist[j] = unreached
			}
			for j, s := range batch.Sources {
				if s == graph.VertexID(v) {
					st.Seen |= 1 << uint(j)
					st.Dist[j] = 0
				}
			}
			return st
		}) && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// initEquals runs prog.Init over a zeroed value array for g and compares
// every slot with the per-vertex definition want.
func initEquals[V, A any](t *testing.T, name string, prog engine.Program[V, A], g *graph.Graph, same func(a, b V) bool, want func(v int) V) bool {
	vals := make([]V, g.NumVertices)
	prog.Init(vals, g)
	for v := range vals {
		if w := want(v); !same(vals[v], w) {
			t.Errorf("%s: Init left vertex %d of %d as %v, the per-vertex definition gives %v", name, v, len(vals), vals[v], w)
			return false
		}
	}
	return true
}
