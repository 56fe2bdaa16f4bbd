package graph

import (
	"math/bits"
	"sort"
)

// Grouped is a CSR-style grouping of (key, companion) vertex pairs whose key
// set is sparse — the machine-local analogue of CSR. Where CSR indexes every
// vertex 0..n-1, Grouped lists only the keys that actually occur, so a
// machine owning a fraction of the graph's edges pays memory proportional to
// its own edge set, not to |V|.
//
// Keys holds the distinct keys in ascending order; the companions of Keys[i]
// occupy Vals[Offs[i]:Offs[i+1]] in input order (the grouping is stable).
// The engine groups each machine's gather records into these: by gather
// destination for dense sweeps, and by gather source, compiled on the first
// sparse-frontier sweep (see layout in internal/engine/placement.go).
type Grouped struct {
	Keys []VertexID
	Offs []int32
	Vals []VertexID
}

// Grouper is the reusable workspace of a stable counting sort into a Grouped:
// O(R + n/64) for R records over the key space [0, n), with no sort, no
// staging copy of the records and every output slice allocated once at its
// final size. The caller owns the two loops over its records, so they can be
// read straight from wherever they live:
//
//	for each record { gr.Count(key) }
//	gr.Layout()
//	for each record, same order { gr.Place(key, val) }
//	g := gr.Done()
//
// Count tallies per-key totals and marks the key in a bitmap; Layout recovers
// the distinct keys in ascending order by walking the bitmap's set bits and
// turns the tallies into write cursors; Place drops each companion at its
// key's cursor, which keeps input order within a group. Between groupings the
// workspace holds only zeros, which Done restores in O(distinct keys).
type Grouper struct {
	count   []int32
	present []uint64
	out     Grouped // the grouping under construction, between Layout and Done
}

// NewGrouper returns a workspace for keys in [0, n). It is a value, so a
// caller can embed it in a workspace of its own at no extra allocation.
func NewGrouper(n int) Grouper {
	return Grouper{count: make([]int32, n), present: make([]uint64, (n+63)/64)}
}

// Count records one occurrence of key k.
func (gr *Grouper) Count(k VertexID) {
	gr.count[k]++
	gr.present[k>>6] |= 1 << (k & 63)
}

// Layout sizes the grouping of everything counted so far: Keys and Offs are
// final, Vals is allocated and waits for one Place per counted record.
func (gr *Grouper) Layout() {
	distinct := 0
	for _, word := range gr.present {
		distinct += bits.OnesCount64(word)
	}
	keys := make([]VertexID, distinct)
	offs := make([]int32, distinct+1)
	i := 0
	for w, word := range gr.present {
		if word == 0 {
			continue
		}
		gr.present[w] = 0
		for ; word != 0; word &= word - 1 {
			k := VertexID(w<<6 + bits.TrailingZeros64(word))
			keys[i] = k
			offs[i+1] = offs[i] + gr.count[k]
			// Repurpose the count as the running write cursor for key k.
			gr.count[k] = offs[i]
			i++
		}
	}
	gr.out = Grouped{Keys: keys, Offs: offs, Vals: make([]VertexID, offs[distinct])}
}

// Place appends companion v to key k's group.
func (gr *Grouper) Place(k, v VertexID) {
	gr.out.Vals[gr.count[k]] = v
	gr.count[k]++
}

// Done returns the finished grouping and zeroes the workspace for the next.
func (gr *Grouper) Done() Grouped {
	g := gr.out
	gr.out = Grouped{}
	for _, k := range g.Keys {
		gr.count[k] = 0
	}
	return g
}

// Find returns the group index of key k, or -1 when k has no records.
func (g *Grouped) Find(k VertexID) int {
	i := sort.Search(len(g.Keys), func(i int) bool { return g.Keys[i] >= k })
	if i < len(g.Keys) && g.Keys[i] == k {
		return i
	}
	return -1
}

// Group returns the companion slice of group i. The slice aliases the
// Grouped's storage and must not be modified.
func (g *Grouped) Group(i int) []VertexID {
	return g.Vals[g.Offs[i]:g.Offs[i+1]]
}
