package graph

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"proxygraph/internal/rng"
)

// Inverse returns the batch that undoes this one against its base graph: the
// deleted edges re-inserted and the inserts deleted. Applying the inverse to
// the evolved graph yields a graph with exactly the base's (Src, Dst)
// multiset — the re-inserted edges land at the tail rather than their
// original stream positions, so the round trip is multiset-exact but not
// order-exact, which makes it fingerprint-exact (the content fingerprint is
// order-independent).
func (d *Delta) Inverse(base *Graph) (*Delta, error) {
	deleted, err := d.DeletedIndices(base)
	if err != nil {
		return nil, err
	}
	inv := &Delta{
		Time:    d.Time + 1,
		Inserts: make([]Edge, len(deleted)),
		Deletes: append([]Edge(nil), d.Inserts...),
	}
	for i, bi := range deleted {
		inv.Inserts[i] = base.Edges[bi]
	}
	return inv, nil
}

// deltaBase is a small graph with a duplicate edge, so that the
// first-remaining-occurrence delete semantics are observable.
func deltaBase() *Graph {
	return &Graph{
		Name:        "base",
		NumVertices: 5,
		Edges:       []Edge{{0, 1}, {1, 2}, {0, 1}, {2, 3}, {3, 4}},
	}
}

func TestDeltaApply(t *testing.T) {
	base := deltaBase()
	d := &Delta{
		Time:    7,
		Deletes: []Edge{{0, 1}, {3, 4}},
		Inserts: []Edge{{4, 0}, {0, 1}},
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	// The first (0,1) goes, the second survives in place, and the inserts
	// follow the survivors.
	if want := []Edge{{1, 2}, {0, 1}, {2, 3}, {4, 0}, {0, 1}}; !slices.Equal(evolved.Edges, want) {
		t.Fatalf("evolved edges %v, want %v", evolved.Edges, want)
	}
	if evolved.NumVertices != base.NumVertices {
		t.Fatalf("vertex count changed to %d", evolved.NumVertices)
	}
	if evolved.Name != "base@t7" {
		t.Fatalf("evolved name %q", evolved.Name)
	}
	// The base graph must be untouched.
	if !slices.Equal(base.Edges, deltaBase().Edges) {
		t.Fatal("Apply mutated the base graph")
	}
}

func TestDeltaErrors(t *testing.T) {
	base := deltaBase()
	cases := []struct {
		name string
		d    *Delta
	}{
		{"zero time", &Delta{Inserts: []Edge{{0, 2}}}},
		{"insert out of range", &Delta{Time: 1, Inserts: []Edge{{0, 9}}}},
		{"insert self-loop", &Delta{Time: 1, Inserts: []Edge{{2, 2}}}},
		{"delete absent edge", &Delta{Time: 1, Deletes: []Edge{{4, 1}}}},
		{"delete more occurrences than present", &Delta{Time: 1, Deletes: []Edge{{1, 2}, {1, 2}}}},
		{"delete from a source outside the base", &Delta{Time: 1, Deletes: []Edge{{5, 1}}}},
		{"delete into a destination outside the base", &Delta{Time: 1, Deletes: []Edge{{0, 1}, {1, 1 << 31}}}},
		{"delete far outside the base", &Delta{Time: 1, Deletes: []Edge{{70, 1}}}},
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
	want := make(map[Edge]int, len(d.Deletes))
	for _, e := range d.Deletes {
		want[e]++
	}
	var idx []int
	for i, e := range base.Edges {
		if len(idx) == len(d.Deletes) {
			break
		}
		if want[e] > 0 {
			want[e]--
			idx = append(idx, i)
		}
	}
	return idx, len(idx) == len(d.Deletes)
}

// TestDeletedIndicesMatchesFullScan pins the (Src, Dst)-pair-filtered scan to
// the full scan it replaced, on the shapes where a pair filter could go wrong.
func TestDeletedIndicesMatchesFullScan(t *testing.T) {
	// A multigraph with a hub (vertex 0 sources every third edge) and
	// repeated pairs.
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
	}
	// pick draws distinct edge positions, so the batch it builds resolves.
	pick := func(count int, from func() int) (es []Edge) {
		used := map[int]bool{}
		for len(es) < count {
			at := from()
			if used[at] {
				continue
			}
			used[at] = true
			es = append(es, base.Edges[at])
		}
		return es
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
		d := &Delta{Time: 1, Deletes: append(pick(tc.count, tc.from), tc.absent...)}
		want, ok := deletedIndicesFullScan(d, base)
		got, err := d.DeletedIndices(base)
		if ok != (err == nil) {
			t.Fatalf("%s: full scan resolves=%v, DeletedIndices error %v", tc.name, ok, err)
		}
		if ok == (tc.absent != nil) {
			t.Fatalf("%s: case built wrong, full scan resolves=%v", tc.name, ok)
		}
		if !ok {
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: indices\n got %v\nwant %v", tc.name, got, want)
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

// edgeMultiset lists g's edge occurrences in sorted order.
func edgeMultiset(g *Graph) []Edge {
	return slices.SortedFunc(slices.Values(g.Edges), func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
}

// roundTrip applies d to base and then its inverse to the result, and checks
// the round trip's law: the base's vertex count and exact edge multiset.
func roundTrip(t *testing.T, label string, base *Graph, d *Delta) {
	t.Helper()
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatalf("%s: apply: %v", label, err)
	}
	inv, err := d.Inverse(base)
	if err != nil {
		t.Fatalf("%s: inverse: %v", label, err)
	}
	back, err := inv.Apply(evolved)
	if err != nil {
		t.Fatalf("%s: unapply: %v", label, err)
	}
	if back.NumVertices != base.NumVertices {
		t.Fatalf("%s: vertex counts %d vs %d", label, back.NumVertices, base.NumVertices)
	}
	if got, want := edgeMultiset(back), edgeMultiset(base); !slices.Equal(got, want) {
		t.Fatalf("%s: round trip edge multiset\n got %v\nwant %v", label, got, want)
	}
}

func TestDeltaInverseRoundTrip(t *testing.T) {
	d := &Delta{
		Time:    3,
		Deletes: []Edge{{0, 1}, {2, 3}},
		Inserts: []Edge{{4, 1}, {0, 1}},
	}
	roundTrip(t, "delta base", deltaBase(), d)
}

// FuzzDelta drives random mutation batches end to end: DeletedIndices must
// agree with its full-scan spec on every batch, in indices and in whether the
// batch resolves, so a pair-filter collision can never drop a wanted pair;
// any delta the validator accepts must apply cleanly, produce a structurally
// valid graph with the implied edge count, and unapply (via Inverse) back to
// the base graph's multiset (roundTrip's law).
func FuzzDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(3), uint8(2))
	f.Add([]byte{0xff, 0x00, 0x80}, uint8(0), uint8(5))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint8(8), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{1, 2, 3, 4}, uint8(0), uint8(0x82)) // a delete outside the base vertex space
	// Repeated pairs, every occurrence deleted.
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
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("fuzz base invalid: %v", err)
		}

		d := &Delta{Time: 1 + uint64(next(3)%9)}
		for i := 0; i < int(nDel)%8 && i < len(base.Edges); i++ {
			d.Deletes = append(d.Deletes, base.Edges[next(7*i)%len(base.Edges)])
		}
		outside := nDel&0x80 != 0
		if outside {
			// An endpoint the base has no vertex for: a rejection, never a
			// panic, however the deletes are indexed.
			d.Deletes = append(d.Deletes, Edge{Src: VertexID(n + next(5)), Dst: VertexID(next(6) % n)})
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
		roundTrip(t, "fuzz round trip", base, d)
	})
}

// TestDeltaApplyBytes pins what Apply allocates to the evolved graph it
// returns and the delete resolution: the edge list, 8 B per evolved edge; up
// to 80 B per delete for DeletedIndices' pair map, filter bitmap and index list; and
// 16 KiB for the graph value and its name.
func TestDeltaApplyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews bytes/op")
	}
	base := randomGraph(t, 131, 20000, 160000)
	d := &Delta{Time: 1}
	for i := 0; i < len(base.Edges); i += 200 {
		d.Deletes = append(d.Deletes, base.Edges[i])
	}
	src := rng.New(7)
	for len(d.Inserts) < len(base.Edges)/100 {
		if u, v := VertexID(src.Intn(base.NumVertices)), VertexID(src.Intn(base.NumVertices)); u != v {
			d.Inserts = append(d.Inserts, Edge{u, v})
		}
	}
	evolved, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := d.Apply(base); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	ceiling := uint64(8*len(evolved.Edges) + 80*len(d.Deletes) + 16<<10)
	t.Logf("%d evolved edges, %d deletes: %d bytes per Apply, ceiling %d", len(evolved.Edges), len(d.Deletes), got, ceiling)
	if got > ceiling {
		t.Errorf("Apply allocates %d bytes, want at most 8·|E'| + 80·|Deletes| + 16 KiB = %d", got, ceiling)
	}
}
