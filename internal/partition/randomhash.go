package partition

import (
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/par"
)

// RandomHash is the baseline vertex-cut of PowerGraph, extended per Section
// II-B1 of the paper: each edge is assigned by a random hash, with machine
// pick probabilities weighted by the shares. With uniform shares every
// machine is equally likely (the original algorithm); with CCR shares the
// index distribution "strictly follows the CCR".
type RandomHash struct{}

// NewRandomHash returns the algorithm.
func NewRandomHash() *RandomHash { return &RandomHash{} }

// Name implements Partitioner.
func (*RandomHash) Name() string { return "random" }

// Partition implements Partitioner. Every edge's owner is a pure function of
// its endpoints and the seed, so the scan is sharded across GOMAXPROCS
// workers; the result is bit-identical to referenceRandom at any worker count.
func (*RandomHash) Partition(g *graph.Graph, shares []float64, seed uint64) ([]engine.Machine, error) {
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	pk := newPicker(shares)
	owner := make([]engine.Machine, len(g.Edges))
	par.Ranges(len(g.Edges), func(_, lo, hi int) {
		edges := g.Edges[lo:hi]
		for i := range edges {
			owner[lo+i] = pk.pick(edgeHash(seed, edges[i]))
		}
	})
	return owner, nil
}
