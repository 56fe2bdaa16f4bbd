package core

import (
	"fmt"
	"math"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

// SubsampleProfiler is the alternative the paper dismisses in its
// introduction: profile machines with a *subsample of a natural graph*
// instead of synthetic proxies. "It is difficult to subsample from a natural
// graph to capture its underlying characteristics, as vertices and edges are
// not evenly distributed in it. Again, this may lead to inaccurate modeling
// of machines' capability." This estimator exists so the claim can be
// quantified — the AblationSubsample experiment compares its CCR error
// against the proxy profiler's.
type SubsampleProfiler struct {
	// Reference is the natural graph being sampled.
	Reference *graph.Graph
	// Fraction of edges to keep (e.g. 0.05 for a 5% sample).
	Fraction float64
	// Seed drives the sampling.
	Seed uint64

	sample *graph.Graph // cached
}

// NewSubsampleProfiler creates the estimator.
func NewSubsampleProfiler(reference *graph.Graph, fraction float64, seed uint64) *SubsampleProfiler {
	return &SubsampleProfiler{Reference: reference, Fraction: fraction, Seed: seed}
}

// Name implements Estimator.
func (sp *SubsampleProfiler) Name() string { return "subsample" }

// Estimate implements Estimator: measure the CCR on the edge sample.
func (sp *SubsampleProfiler) Estimate(cl *cluster.Cluster, app apps.App) (CCR, error) {
	if sp.Reference == nil {
		return CCR{}, fmt.Errorf("core: subsample profiler has no reference graph")
	}
	if sp.sample == nil {
		s, err := graph.SampleEdges(sp.Reference, sp.Fraction, sp.Seed)
		if err != nil {
			return CCR{}, err
		}
		sp.sample = s
	}
	return MeasureCCR(cl, app, sp.sample)
}

// --- Proxy-set coverage (Section III-A3's closing flow) ---

// proxyBandSlack widens a proxy set's α span by the tolerance the paper
// implies by spacing proxies ~0.15 apart.
const proxyBandSlack = 0.1

// inBand reports whether alpha lies within a proxy set spanning [lo, hi],
// widened by proxyBandSlack.
func inBand(alpha, lo, hi float64) bool {
	return alpha >= lo-proxyBandSlack && alpha <= hi+proxyBandSlack
}

// DefaultProxyBand applies the coverage rule to the default proxy set
// (gen.ProxyGraphs) without generating it: it returns the band of exponents
// that set covers and whether alpha lies inside it.
// TestDefaultProxyBandMatchesCovers and TestEnsureCoverageExtendsProxySet
// pin it to a generated default set and to the paper's extension rule.
func DefaultProxyBand(alpha float64) (lo, hi float64, covered bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range gen.ProxyGraphs() {
		lo, hi = math.Min(lo, s.Alpha), math.Max(hi, s.Alpha)
	}
	return lo - proxyBandSlack, hi + proxyBandSlack, inBand(alpha, lo, hi)
}
