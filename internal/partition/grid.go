package partition

import (
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// Grid is the 2D constrained vertex-cut of Section II-B3: machines form a
// rows×cols matrix, every vertex hashes to a shard, and an edge may only go
// to machines in the intersection of its endpoints' constraint sets (the
// union of the shard's row and column), which bounds replication at
// rows+cols-1. Each candidate machine is scored by how far it is below its
// CCR-proportional target, "considering the current edge distribution and
// the edge placements suggested by CCR"; the edge goes to the highest score.
//
// The paper requires a square machine count. To keep the algorithm usable on
// the paper's own two-machine clusters (Fig 9 runs Grid there), non-square
// counts fall back to the most square rows×cols factorization — for prime
// counts this degenerates to a 1×M grid, i.e. weighted greedy placement.
type Grid struct{}

// NewGrid returns the algorithm.
func NewGrid() *Grid { return &Grid{} }

// Name implements Partitioner.
func (*Grid) Name() string { return "grid" }

// gridShape factors m into rows <= cols with rows maximal.
func gridShape(m int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= m; r++ {
		if m%r == 0 {
			rows = r
		}
	}
	return rows, m / rows
}

// unionBest returns the best-scoring machine of su ∪ sv, where inSet marks
// exactly su's members. The union is walked without materializing it —
// appending sv onto su (the previous implementation) would alias the caller's
// cached constraint slice whenever len(su) < cap(su), and would score
// machines present in both sets twice.
func unionBest(su, sv []int32, inSet []bool, score func(int32) float64) int32 {
	best := int32(-1)
	bestScore := 0.0
	for _, p := range su {
		if s := score(p); best == -1 || s > bestScore {
			best, bestScore = p, s
		}
	}
	for _, p := range sv {
		if inSet[p] {
			continue // already scored as a member of su
		}
		if s := score(p); best == -1 || s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// Partition implements Partitioner.
func (*Grid) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	m := len(shares)
	rows, cols := gridShape(m)
	// Machine p sits at (p/cols, p%cols). The constraint set of shard (r, c)
	// is every machine in row r plus every machine in column c; a set depends
	// only on the shard, so all rows·cols = m of them are built once.
	sets := make([][]int32, m)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			set := make([]int32, 0, rows+cols-1)
			for j := 0; j < cols; j++ {
				set = append(set, int32(r*cols+j))
			}
			for i := 0; i < rows; i++ {
				if i != r {
					set = append(set, int32(i*cols+c))
				}
			}
			sets[r*cols+c] = set
		}
	}
	// shard maps v to the index of its shard (r, c) = (hash mod rows,
	// hash' mod cols).
	shard := func(v graph.VertexID) int {
		h := vertexHash(seed, v)
		return int(h%uint64(rows))*cols + int((h>>32)%uint64(cols))
	}

	load := make([]int64, m)
	total := int64(0)
	owner := make([]engine.Machine, len(g.Edges))
	inSet := make([]bool, m)
	for i, e := range g.Edges {
		su, sv := sets[shard(e.Src)], sets[shard(e.Dst)]
		for _, p := range su {
			inSet[p] = true
		}
		best := int32(-1)
		bestScore := 0.0
		score := func(p int32) float64 {
			// Deficit below the CCR-suggested placement: positive when the
			// machine is under target.
			return shares[p]*float64(total+1) - float64(load[p])
		}
		for _, p := range sv {
			if inSet[p] {
				if s := score(p); best == -1 || s > bestScore {
					best, bestScore = p, s
				}
			}
		}
		if best == -1 {
			// Constraint sets always intersect (shared row machine), but be
			// safe: fall back to the emptiest machine of the union.
			best = unionBest(su, sv, inSet, score)
		}
		for _, p := range su {
			inSet[p] = false
		}
		owner[i] = engine.Machine(best)
		load[best]++
		total++
	}
	return owner, nil
}
