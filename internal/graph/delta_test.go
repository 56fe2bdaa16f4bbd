package graph

import (
	"cmp"
	"slices"
	"testing"
)

// deltaBase is a small weighted graph with a duplicate edge, so the
// first-remaining-occurrence delete semantics are observable.
func deltaBase() *Graph {
	return &Graph{
		Name:        "base",
		NumVertices: 5,
		Edges:       []Edge{{0, 1}, {1, 2}, {0, 1}, {2, 3}, {3, 4}},
		Weights:     []float32{1, 2, 3, 4, 5},
	}
}

func TestDeltaApply(t *testing.T) {
	base := deltaBase()
	d := &Delta{
		Time:          7,
		Deletes:       []Edge{{0, 1}, {3, 4}},
		Inserts:       []Edge{{4, 0}, {0, 1}},
		InsertWeights: []float32{9, 8},
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := []Edge{{1, 2}, {0, 1}, {2, 3}, {4, 0}, {0, 1}}
	wantWeights := []float32{2, 3, 4, 9, 8}
	if len(evolved.Edges) != len(wantEdges) {
		t.Fatalf("evolved has %d edges, want %d", len(evolved.Edges), len(wantEdges))
	}
	for i := range wantEdges {
		if evolved.Edges[i] != wantEdges[i] || evolved.Weights[i] != wantWeights[i] {
			t.Fatalf("edge %d: got %v/%v, want %v/%v",
				i, evolved.Edges[i], evolved.Weights[i], wantEdges[i], wantWeights[i])
		}
	}
	if evolved.NumVertices != base.NumVertices {
		t.Fatalf("vertex count changed to %d", evolved.NumVertices)
	}
	if evolved.Name != "base@t7" {
		t.Fatalf("evolved name %q", evolved.Name)
	}
	// The base graph must be untouched.
	if len(base.Edges) != 5 || base.Edges[0] != (Edge{0, 1}) || base.Weights[0] != 1 {
		t.Fatal("Apply mutated the base graph")
	}
}

func TestDeltaApplyGrowsAndShrinks(t *testing.T) {
	base := &Graph{NumVertices: 3, Edges: []Edge{{0, 1}, {1, 2}}}

	grow := &Delta{Time: 1, Inserts: []Edge{{2, 4}}, NumVertices: 5}
	evolved, err := grow.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if evolved.NumVertices != 5 || len(evolved.Edges) != 3 {
		t.Fatalf("grow produced |V|=%d |E|=%d", evolved.NumVertices, len(evolved.Edges))
	}
	if evolved.Weights != nil {
		t.Fatal("unweighted base grew a weight column")
	}

	shrink := &Delta{Time: 2, Deletes: []Edge{{1, 2}}, NumVertices: 2}
	evolved, err = shrink.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if evolved.NumVertices != 2 || len(evolved.Edges) != 1 {
		t.Fatalf("shrink produced |V|=%d |E|=%d", evolved.NumVertices, len(evolved.Edges))
	}

	// Shrinking below a surviving endpoint must fail, not truncate.
	if _, err := (&Delta{Time: 3, NumVertices: 2}).Apply(base); err == nil {
		t.Fatal("shrink below surviving endpoint accepted")
	}
}

func TestDeltaErrors(t *testing.T) {
	base := deltaBase()
	cases := []struct {
		name string
		d    *Delta
	}{
		{"zero time", &Delta{Inserts: []Edge{{0, 2}}, InsertWeights: []float32{1}}},
		{"negative vertices", &Delta{Time: 1, NumVertices: -1}},
		{"insert out of range", &Delta{Time: 1, Inserts: []Edge{{0, 9}}, InsertWeights: []float32{1}}},
		{"insert self-loop", &Delta{Time: 1, Inserts: []Edge{{2, 2}}, InsertWeights: []float32{1}}},
		{"weight count mismatch", &Delta{Time: 1, Inserts: []Edge{{0, 2}}, InsertWeights: []float32{1, 2}}},
		{"weighted base needs weights", &Delta{Time: 1, Inserts: []Edge{{0, 2}}}},
		{"delete absent edge", &Delta{Time: 1, Deletes: []Edge{{4, 1}}}},
		{"delete more occurrences than present", &Delta{Time: 1, Deletes: []Edge{{1, 2}, {1, 2}}}},
		{"delete from a source outside the base", &Delta{Time: 1, Deletes: []Edge{{5, 1}}}},
		{"delete into a destination outside the base", &Delta{Time: 1, Deletes: []Edge{{0, 1}, {1, 1 << 31}}}},
		{"delete outside the base inside a grown vertex space", &Delta{Time: 1, Deletes: []Edge{{70, 1}}, NumVertices: 100}},
	}
	for _, tc := range cases {
		if _, err := tc.d.Apply(base); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDeltaDeletedIndices(t *testing.T) {
	base := deltaBase()
	// Two deletes of the duplicate (0,1) must claim both occurrences, in
	// ascending index order.
	d := &Delta{Time: 1, Deletes: []Edge{{0, 1}, {0, 1}}}
	idx, err := d.DeletedIndices(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("indices %v, want [0 2]", idx)
	}
}

// deletedIndicesFullScan is the executable spec of DeletedIndices: one map
// lookup per base edge, stopping once every delete has claimed an occurrence.
func deletedIndicesFullScan(d *Delta, base *Graph) ([]int, bool) {
	type occurrence struct {
		e Edge
		w float32
	}
	key := func(e Edge, w float32) occurrence {
		if d.DeleteWeights == nil {
			return occurrence{e: e}
		}
		return occurrence{e: e, w: w}
	}
	want := make(map[occurrence]int, len(d.Deletes))
	for j, e := range d.Deletes {
		var w float32
		if d.DeleteWeights != nil {
			w = d.DeleteWeights[j]
		}
		want[key(e, w)]++
	}
	var idx []int
	for i, e := range base.Edges {
		if len(idx) == len(d.Deletes) {
			break
		}
		if k := key(e, base.Weight(i)); want[k] > 0 {
			want[k]--
			idx = append(idx, i)
		}
	}
	return idx, len(idx) == len(d.Deletes)
}

// TestDeletedIndicesMatchesFullScan pins the source-filtered scan to the full
// scan it replaced, on the shapes where a vertex index could go wrong.
func TestDeletedIndicesMatchesFullScan(t *testing.T) {
	// A multigraph with a hub (vertex 0 sources every third edge), repeated
	// pairs and a small weight alphabet, so pairs recur at equal and at
	// different weights.
	const n = 97
	base := &Graph{Name: "scan", NumVertices: n}
	state := uint64(20160816)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < 1500; i++ {
		u, v := next(n), next(12)
		if i%3 == 0 {
			u = 0
		}
		if u == v {
			v = (v + 1) % n
		}
		base.Edges = append(base.Edges, Edge{Src: VertexID(u), Dst: VertexID(v)})
		base.Weights = append(base.Weights, float32(1+next(3)))
	}
	// pick draws distinct edge positions, so the batch it builds resolves.
	pick := func(count int, from func() int) (es []Edge, ws []float32) {
		used := map[int]bool{}
		for len(es) < count {
			at := from()
			if used[at] {
				continue
			}
			used[at] = true
			es = append(es, base.Edges[at])
			ws = append(ws, base.Weights[at])
		}
		return es, ws
	}
	anywhere := func() int { return next(len(base.Edges)) }
	onHub := func() int { return 3 * next(len(base.Edges)/3) }
	late := func() int { return len(base.Edges) - 1 - next(40) }

	cases := []struct {
		name   string
		from   func() int
		count  int
		absent []Edge // appended to the deletes; each must make the batch fail
	}{
		{"spread over the graph", anywhere, 60, nil},
		{"concentrated on the hub", onHub, 120, nil},
		{"later occurrences of repeated pairs", late, 30, nil},
		{"single delete", anywhere, 1, nil},
		{"pair never present", anywhere, 10, []Edge{{5, 96}}},
		{"source outside the base", anywhere, 10, []Edge{{n, 3}}},
		{"destination outside the base", onHub, 10, []Edge{{0, 1 << 30}}},
	}
	for _, tc := range cases {
		for _, triple := range []bool{false, true} {
			d := &Delta{Time: 1}
			d.Deletes, d.DeleteWeights = pick(tc.count, tc.from)
			for _, e := range tc.absent {
				d.Deletes = append(d.Deletes, e)
				d.DeleteWeights = append(d.DeleteWeights, 1)
			}
			if !triple {
				d.DeleteWeights = nil
			}
			want, ok := deletedIndicesFullScan(d, base)
			got, err := d.DeletedIndices(base)
			if ok != (err == nil) {
				t.Fatalf("%s (triple=%v): full scan resolves=%v, DeletedIndices error %v", tc.name, triple, ok, err)
			}
			if ok == (tc.absent != nil) {
				t.Fatalf("%s (triple=%v): case built wrong, full scan resolves=%v", tc.name, triple, ok)
			}
			if !ok {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s (triple=%v): indices\n got %v\nwant %v", tc.name, triple, got, want)
			}
		}
	}

	// First-occurrence-first, pinned directly: k deletes of one pair claim its
	// first k occurrences.
	pair := base.Edges[3]
	var occurrences []int
	for i, e := range base.Edges {
		if e == pair {
			occurrences = append(occurrences, i)
		}
	}
	if len(occurrences) < 3 {
		t.Fatalf("base graph has %d occurrences of %v, want a repeated pair", len(occurrences), pair)
	}
	d := &Delta{Time: 1, Deletes: []Edge{pair, pair}}
	got, err := d.DeletedIndices(base)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, occurrences[:2]) {
		t.Fatalf("two deletes of %v claimed %v, want the first two of %v", pair, got, occurrences)
	}
}

func TestDeltaTouched(t *testing.T) {
	d := &Delta{
		Time:    1,
		Inserts: []Edge{{4, 0}},
		Deletes: []Edge{{2, 3}, {0, 1}},
	}
	got := d.Touched()
	want := []VertexID{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("touched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touched %v, want %v", got, want)
		}
	}
}

// weightedEdge is an edge occurrence with its weight, the unit of the
// multiset the delta round trip must preserve.
type weightedEdge struct {
	e Edge
	w float32
}

func edgeMultiset(g *Graph) []weightedEdge {
	out := make([]weightedEdge, len(g.Edges))
	for i, e := range g.Edges {
		out[i] = weightedEdge{e: e, w: g.Weight(i)}
	}
	slices.SortFunc(out, func(a, b weightedEdge) int {
		return cmp.Or(cmp.Compare(a.e.Src, b.e.Src), cmp.Compare(a.e.Dst, b.e.Dst), cmp.Compare(a.w, b.w))
	})
	return out
}

func sameMultiset(t *testing.T, label string, a, b *Graph) {
	t.Helper()
	if a.NumVertices != b.NumVertices {
		t.Fatalf("%s: vertex counts %d vs %d", label, a.NumVertices, b.NumVertices)
	}
	ma, mb := edgeMultiset(a), edgeMultiset(b)
	if len(ma) != len(mb) {
		t.Fatalf("%s: edge counts %d vs %d", label, len(ma), len(mb))
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("%s: multiset entry %d: %v vs %v", label, i, ma[i], mb[i])
		}
	}
}

func TestDeltaInverseRoundTrip(t *testing.T) {
	base := deltaBase()
	d := &Delta{
		Time:          3,
		Deletes:       []Edge{{0, 1}, {2, 3}},
		Inserts:       []Edge{{4, 1}},
		InsertWeights: []float32{6},
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := d.Inverse(base)
	if err != nil {
		t.Fatal(err)
	}
	back, err := inv.Apply(evolved)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "round trip", base, back)
}

// FuzzDelta drives random mutation batches end to end: DeletedIndices must
// agree with its full-scan spec on every batch, in indices and in whether the
// batch resolves, so a pair-filter collision can never drop a wanted pair;
// any delta the validator accepts must apply cleanly, produce a structurally
// valid graph with the implied edge count, and unapply (via Inverse) back to
// the base graph's exact weighted-edge multiset. The high bit of nIns selects
// the triple form (DeleteWeights set from the chosen occurrences).
func FuzzDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(3), uint8(2))
	f.Add([]byte{0xff, 0x00, 0x80}, uint8(0), uint8(5))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint8(8), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{1, 2, 3, 4}, uint8(0), uint8(0x82)) // a delete outside the base vertex space
	// Pairs repeated at different weights, every occurrence deleted in the
	// triple form.
	f.Add([]byte{5}, uint8(0x81), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, nIns, nDel uint8) {
		next := func(i int) int {
			if len(data) == 0 {
				return i
			}
			return int(data[i%len(data)]) + i
		}
		// Deterministic base graph shaped by the fuzz input.
		n := 4 + next(0)%12
		base := &Graph{Name: "fuzz", NumVertices: n}
		for i := 0; i < 6+next(1)%20; i++ {
			u := next(2*i) % n
			v := next(2*i+1) % n
			if u == v {
				v = (v + 1) % n
			}
			base.Edges = append(base.Edges, Edge{Src: VertexID(u), Dst: VertexID(v)})
			base.Weights = append(base.Weights, float32(1+next(i)%5))
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("fuzz base invalid: %v", err)
		}

		d := &Delta{Time: 1 + uint64(next(3)%9)}
		for i := 0; i < int(nDel)%8 && i < len(base.Edges); i++ {
			at := next(7*i) % len(base.Edges)
			d.Deletes = append(d.Deletes, base.Edges[at])
			d.DeleteWeights = append(d.DeleteWeights, base.Weights[at])
		}
		outside := nDel&0x80 != 0
		if outside {
			// An endpoint the base has no vertex for: a rejection, never a
			// panic, however the deletes are indexed.
			d.Deletes = append(d.Deletes, Edge{Src: VertexID(n + next(5)), Dst: VertexID(next(6) % n)})
			d.DeleteWeights = append(d.DeleteWeights, 1)
		}
		if nIns&0x80 == 0 {
			d.DeleteWeights = nil
		}
		want, resolves := deletedIndicesFullScan(d, base)
		got, err := d.DeletedIndices(base)
		if resolves != (err == nil) {
			t.Fatalf("full scan resolves=%v, DeletedIndices error %v", resolves, err)
		}
		if resolves && !slices.Equal(got, want) {
			t.Fatalf("DeletedIndices %v, full scan %v", got, want)
		}
		for i := 0; i < int(nIns)%8; i++ {
			u := next(11*i) % n
			v := next(13*i+1) % n
			if u == v {
				continue
			}
			d.Inserts = append(d.Inserts, Edge{Src: VertexID(u), Dst: VertexID(v)})
			d.InsertWeights = append(d.InsertWeights, float32(next(i)%7))
		}
		if len(d.Inserts) == 0 {
			d.InsertWeights = nil
		}

		evolved, err := d.Apply(base)
		if err != nil {
			// Duplicated deletes can exceed the occurrences present; any
			// error must be a rejection, not a bad graph.
			return
		}
		if outside {
			t.Fatalf("delete %v outside the %d-vertex base accepted", d.Deletes[len(d.Deletes)-1], n)
		}
		if err := evolved.Validate(); err != nil {
			t.Fatalf("evolved graph invalid: %v", err)
		}
		if !resolves {
			t.Fatal("apply succeeded but the full scan does not resolve the deletes")
		}
		if want := len(base.Edges) - len(d.Deletes) + len(d.Inserts); len(evolved.Edges) != want {
			t.Fatalf("evolved has %d edges, want %d", len(evolved.Edges), want)
		}
		inv, err := d.Inverse(base)
		if err != nil {
			t.Fatalf("inverse: %v", err)
		}
		back, err := inv.Apply(evolved)
		if err != nil {
			t.Fatalf("unapply: %v", err)
		}
		sameMultiset(t, "fuzz round trip", base, back)
	})
}
