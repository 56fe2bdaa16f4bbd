package graph

import (
	"fmt"

	"proxygraph/internal/rng"
)

// This file holds graph transformations: subsampling and edge weights.
// Subsampling exists mainly to demonstrate the paper's motivating claim that
// "it is difficult to subsample from a natural graph to capture its
// underlying characteristics" (Section I) — package core's
// SubsampleProfiler builds on it and the ablation in internal/exp
// quantifies how badly it estimates CCRs compared to synthetic proxies.

// SampleEdges returns a uniform random sample keeping approximately fraction
// of g's edges, with the vertex set unchanged. Edge sampling preserves the
// vertex count but thins every neighborhood, so the sample's degree
// distribution — and therefore its computational profile — diverges from the
// original (the paper's argument against profiling with subsampled inputs).
func SampleEdges(g *Graph, fraction float64, seed uint64) (*Graph, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("graph: sample fraction %v outside (0, 1]", fraction)
	}
	src := rng.New(seed)
	out := &Graph{
		Name:        fmt.Sprintf("%s-sample%.3f", g.Name, fraction),
		NumVertices: g.NumVertices,
		Alpha:       0, // the sample's alpha differs from the original's
	}
	for i, e := range g.Edges {
		if src.Float64() < fraction {
			out.Edges = append(out.Edges, e)
			if g.Weights != nil {
				out.Weights = append(out.Weights, g.Weights[i])
			}
		}
	}
	return out, nil
}

// AttachWeights assigns deterministic pseudo-random edge weights in
// [minW, maxW), enabling the weighted applications (SSSP). It returns g.
//
// Test support: the SSSP and weighted-graph tests of internal/apps
// (sssp_kcore_test.go, sssp_walk_test.go, property_test.go,
// edge_order_test.go) build their weighted inputs with it.
func AttachWeights(g *Graph, minW, maxW float32, seed uint64) *Graph {
	if maxW < minW {
		minW, maxW = maxW, minW
	}
	src := rng.New(seed)
	g.Weights = make([]float32, len(g.Edges))
	span := maxW - minW
	for i := range g.Weights {
		g.Weights[i] = minW + float32(src.Float64())*span
	}
	return g
}

// Weight returns edge i's weight, defaulting to 1 for unweighted graphs.
func (g *Graph) Weight(i int) float32 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[i]
}
