package graph

import (
	"testing"
)

// GroupPairs groups the records (keys[i] -> vals[i]) by key: the Grouper
// protocol over two parallel slices. scratch provides the counting workspace;
// it must have length at least max(keys)+1 and hold only zeros, and it is
// handed back zeroed so one scratch can serve many calls.
func GroupPairs(keys, vals []VertexID, scratch []int32) Grouped {
	if len(keys) != len(vals) {
		panic("graph: GroupPairs key/val length mismatch")
	}
	gr := &Grouper{count: scratch, present: make([]uint64, (len(scratch)+63)/64)}
	for _, k := range keys {
		gr.Count(k)
	}
	gr.Layout()
	for i, k := range keys {
		gr.Place(k, vals[i])
	}
	return gr.Done()
}

func TestGroupPairsStableGrouping(t *testing.T) {
	// Records: (5->a) pairs interleaved with (2->b) pairs; stability means
	// each key's companions keep input order.
	keys := []VertexID{5, 2, 5, 9, 2, 5}
	vals := []VertexID{10, 20, 11, 30, 21, 12}
	scratch := make([]int32, 10)
	g := GroupPairs(keys, vals, scratch)

	wantKeys := []VertexID{2, 5, 9}
	if len(g.Keys) != len(wantKeys) {
		t.Fatalf("keys = %v, want %v", g.Keys, wantKeys)
	}
	for i, k := range wantKeys {
		if g.Keys[i] != k {
			t.Fatalf("keys = %v, want %v", g.Keys, wantKeys)
		}
	}
	check := func(key VertexID, want []VertexID) {
		t.Helper()
		gi := g.Find(key)
		if gi < 0 {
			t.Fatalf("Find(%d) = -1", key)
		}
		got := g.Group(gi)
		if len(got) != len(want) {
			t.Fatalf("group %d = %v, want %v", key, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %d = %v, want %v", key, got, want)
			}
		}
	}
	check(2, []VertexID{20, 21})
	check(5, []VertexID{10, 11, 12})
	check(9, []VertexID{30})

	if g.Find(7) != -1 {
		t.Error("Find on absent key should return -1")
	}
	if len(g.Vals) != len(keys) {
		t.Errorf("%d records grouped, want %d", len(g.Vals), len(keys))
	}
	// The scratch must come back zeroed for reuse.
	for i, c := range scratch {
		if c != 0 {
			t.Fatalf("scratch[%d] = %d after GroupPairs", i, c)
		}
	}
}

func TestGroupPairsEmpty(t *testing.T) {
	g := GroupPairs(nil, nil, make([]int32, 4))
	if len(g.Keys) != 0 || len(g.Vals) != 0 || len(g.Offs) != 1 {
		t.Errorf("empty grouping = %+v", g)
	}
	if g.Find(0) != -1 {
		t.Error("Find on empty grouping should return -1")
	}
}

func TestGroupPairsMatchesCSROrder(t *testing.T) {
	// Grouping a full edge list by source must agree with BuildOutCSR on
	// membership (CSR additionally sorts each row).
	g := &Graph{NumVertices: 40}
	src := uint64(12345)
	next := func() VertexID {
		src = src*6364136223846793005 + 1442695040888963407
		return VertexID((src >> 33) % 40)
	}
	for len(g.Edges) < 300 {
		u, v := next(), next()
		if u != v {
			g.Edges = append(g.Edges, Edge{Src: u, Dst: v})
		}
	}
	keys := make([]VertexID, len(g.Edges))
	vals := make([]VertexID, len(g.Edges))
	for i, e := range g.Edges {
		keys[i], vals[i] = e.Src, e.Dst
	}
	grouped := GroupPairs(keys, vals, make([]int32, g.NumVertices))
	csr := g.BuildOutCSR()
	for v := 0; v < g.NumVertices; v++ {
		want := csr.Neighbors(VertexID(v))
		gi := grouped.Find(VertexID(v))
		var got []VertexID
		if gi >= 0 {
			got = grouped.Group(gi)
		}
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors grouped, CSR has %d", v, len(got), len(want))
		}
		// Same multiset: count occurrences.
		cnt := map[VertexID]int{}
		for _, u := range got {
			cnt[u]++
		}
		for _, u := range want {
			cnt[u]--
		}
		for u, c := range cnt {
			if c != 0 {
				t.Fatalf("vertex %d: neighbor %d multiplicity differs by %d", v, u, c)
			}
		}
	}
}
