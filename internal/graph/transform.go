package graph

import (
	"fmt"

	"proxygraph/internal/rng"
)

// This file holds edge subsampling. It exists mainly to demonstrate the
// paper's motivating claim that "it is difficult to subsample from a natural
// graph to capture its underlying characteristics" (Section I) — package
// core's SubsampleProfiler builds on it and the ablation in internal/exp
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
	for _, e := range g.Edges {
		if src.Float64() < fraction {
			out.Edges = append(out.Edges, e)
		}
	}
	return out, nil
}
