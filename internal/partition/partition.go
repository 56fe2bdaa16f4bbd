// Package partition implements the graph ingress algorithms of Section II of
// the paper: the vertex-cut partitioners Random Hash, Oblivious and Grid
// (from PowerGraph) and the mixed-cut partitioners Hybrid and Ginger (from
// PowerLyra/Fennel), each extended to be heterogeneity-aware.
//
// Every partitioner takes a share vector: machine p should receive share[p]
// of the edges. Uniform shares reproduce the original homogeneous
// algorithms; CCR-derived shares (package core) produce the paper's
// heterogeneity-aware variants. The same code path serves both — the paper's
// point is precisely that only the weights change.
package partition

import (
	"fmt"
	"math"
	"slices"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
)

// Partitioner assigns every edge of a graph to one of len(shares) machines.
type Partitioner interface {
	// Name identifies the algorithm ("random", "oblivious", ...).
	Name() string
	// Partition returns the owning machine of every edge. shares must be a
	// normalized distribution over machines; seed drives the hashing.
	Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error)
}

// All returns the paper's five partitioning algorithms with default
// parameters, in the order the figures list them (random, oblivious, grid,
// hybrid, ginger).
func All() []Partitioner {
	return []Partitioner{
		NewRandomHash(),
		NewOblivious(),
		NewGrid(),
		NewHybrid(),
		NewGinger(),
	}
}

// ByName returns the named partitioner (including extensions) with default
// parameters.
func ByName(name string) (Partitioner, error) {
	for _, p := range WithExtensions() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("partition: unknown algorithm %q", name)
}

// UniformShares returns the equal-share vector for m machines.
func UniformShares(m int) []float64 {
	shares := make([]float64, m)
	for i := range shares {
		shares[i] = 1 / float64(m)
	}
	return shares
}

// NormalizeShares returns a copy of a positive weight vector (e.g. raw
// CCRs) scaled to sum to 1, leaving weights as it was. It errors as
// NormalizeSharesInPlace does.
func NormalizeShares(weights []float64) ([]float64, error) {
	shares := slices.Clone(weights)
	if err := NormalizeSharesInPlace(shares); err != nil {
		return nil, err
	}
	return shares, nil
}

// NormalizeSharesInPlace scales a positive weight vector to sum to 1 in
// place, so a caller that builds the weights allocates only the shares. It
// errors, leaving weights unchanged, on empty input or a weight that is not
// finite and positive.
func NormalizeSharesInPlace(weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("partition: empty weight vector")
	}
	sum := 0.0
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("partition: weight %d is %v, must be finite and positive", i, w)
		}
		sum += w
	}
	for i, w := range weights {
		weights[i] = w / sum
	}
	return nil
}

// checkShares validates a share vector for m machines.
func checkShares(shares []float64, minMachines int) error {
	if len(shares) < minMachines {
		return fmt.Errorf("partition: %d machines, need at least %d", len(shares), minMachines)
	}
	if len(shares) > engine.MaxMachines {
		return fmt.Errorf("partition: %d machines exceeds limit %d", len(shares), engine.MaxMachines)
	}
	sum := 0.0
	for i, s := range shares {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("partition: share %d is %v, must be finite and positive", i, s)
		}
		sum += s
	}
	if !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("partition: shares sum to %v, want 1 (use NormalizeShares)", sum)
	}
	return nil
}

// cumulative returns the prefix sums of shares for inverse-CDF picking.
func cumulative(shares []float64) []float64 {
	cum := make([]float64, len(shares))
	acc := 0.0
	for i, s := range shares {
		acc += s
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // absorb rounding
	return cum
}

// Apply runs the partitioner and finalizes the result into a Placement.
func Apply(p Partitioner, g *graph.Graph, shares []float64, seed uint64) (*engine.Placement, error) {
	owner, err := p.Partition(g, shares, seed)
	if err != nil {
		return nil, fmt.Errorf("partition: %s: %w", p.Name(), err)
	}
	return engine.NewPlacement(g, owner, len(shares))
}

// edgeHash gives every (src, dst) pair a stable hash so duplicate edges
// co-locate, as PowerGraph's hashed ingress does.
func edgeHash(seed uint64, e graph.Edge) uint64 {
	return rng.Hash3(seed, uint64(e.Src), uint64(e.Dst))
}

// vertexHash gives every vertex a stable per-seed hash.
func vertexHash(seed uint64, v graph.VertexID) uint64 {
	return rng.Hash2(seed, uint64(v))
}

// WithExtensions returns All plus the algorithms beyond the paper's set
// (currently HDRF).
func WithExtensions() []Partitioner {
	return append(All(), NewHDRF())
}
