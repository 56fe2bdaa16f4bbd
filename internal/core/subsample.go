package core

import (
	"fmt"
	"math"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/powerlaw"
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

// --- Proxy-set coverage maintenance (Section III-A3's closing flow) ---

// CoveredAlphaRange returns the α span of the profiler's current proxy set.
func (pp *ProxyProfiler) CoveredAlphaRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pp.Proxies {
		if p.Alpha < lo {
			lo = p.Alpha
		}
		if p.Alpha > hi {
			hi = p.Alpha
		}
	}
	return lo, hi
}

// proxyBandSlack widens a proxy set's α span by the tolerance the paper
// implies by spacing proxies ~0.15 apart.
const proxyBandSlack = 0.1

// Covers reports whether alpha lies within the proxy set's range, widened by
// proxyBandSlack.
func (pp *ProxyProfiler) Covers(alpha float64) bool {
	lo, hi := pp.CoveredAlphaRange()
	return inBand(alpha, lo, hi)
}

// inBand is the Covers rule for a proxy set spanning [lo, hi].
func inBand(alpha, lo, hi float64) bool {
	return alpha >= lo-proxyBandSlack && alpha <= hi+proxyBandSlack
}

// DefaultProxyBand applies the Covers rule to the default proxy set
// (gen.ProxyGraphs) without generating it: it returns the band of exponents
// that set covers and whether alpha lies inside it. For any alpha > 1,
// EnsureCoverage extends NewProxyProfiler's set exactly when covered is false.
func DefaultProxyBand(alpha float64) (lo, hi float64, covered bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range gen.ProxyGraphs() {
		lo, hi = math.Min(lo, s.Alpha), math.Max(hi, s.Alpha)
	}
	return lo - proxyBandSlack, hi + proxyBandSlack, inBand(alpha, lo, hi)
}

// ClosestProxy returns the proxy whose α is nearest to alpha, for flows that
// pick "one corresponding CCR set" per input graph.
func (pp *ProxyProfiler) ClosestProxy(alpha float64) (*graph.Graph, error) {
	if len(pp.Proxies) == 0 {
		return nil, fmt.Errorf("core: proxy profiler has no proxy graphs")
	}
	best := pp.Proxies[0]
	for _, p := range pp.Proxies[1:] {
		if math.Abs(p.Alpha-alpha) < math.Abs(best.Alpha-alpha) {
			best = p
		}
	}
	return best, nil
}

// EnsureCoverage implements the paper's coverage-extension rule: "If its α
// is beyond the covered range, an additional synthetic graph can be
// generated and added to the current set." The new proxy matches the
// existing proxies' vertex count and is generated at the requested α. It
// returns true when a proxy was added.
func (pp *ProxyProfiler) EnsureCoverage(alpha float64, seed uint64) (bool, error) {
	if alpha <= 1 {
		return false, fmt.Errorf("core: alpha %v not a valid power-law exponent", alpha)
	}
	if len(pp.Proxies) == 0 {
		return false, fmt.Errorf("core: proxy profiler has no proxy graphs")
	}
	if pp.Covers(alpha) {
		return false, nil
	}
	vertices := int64(pp.Proxies[0].NumVertices)
	spec := gen.Spec{
		Name:     fmt.Sprintf("proxy-alpha%.2f", alpha),
		Vertices: vertices,
		Alpha:    alpha,
		Kind:     gen.KindPowerLaw,
	}
	g, err := gen.Generate(spec, seed)
	if err != nil {
		return false, err
	}
	pp.Proxies = append(pp.Proxies, g)
	return true, nil
}

// EstimateForGraph estimates the CCR using only the proxy closest in α to
// the given input graph (fitted from its |V| and |E|), the per-input variant
// of the pooled flow. It falls back to the fitted α being outside any proxy
// by extending coverage first.
func (pp *ProxyProfiler) EstimateForGraph(cl *cluster.Cluster, app apps.App, g *graph.Graph, seed uint64) (CCR, error) {
	alpha := g.Alpha
	if alpha == 0 {
		fitted, err := powerlaw.FitAlphaForGraph(int64(g.NumVertices), int64(g.NumEdges()))
		if err != nil {
			return CCR{}, err
		}
		alpha = fitted
	}
	if _, err := pp.EnsureCoverage(alpha, seed); err != nil {
		return CCR{}, err
	}
	proxy, err := pp.ClosestProxy(alpha)
	if err != nil {
		return CCR{}, err
	}
	return MeasureCCR(cl, app, proxy)
}
