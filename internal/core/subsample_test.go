package core

import (
	"fmt"
	"math"
	"testing"

	"proxygraph/internal/apps"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

func TestSubsampleProfilerWorksButIsWorseThanProxies(t *testing.T) {
	// Quantify the paper's motivating claim: profiling with a subsample of a
	// natural graph estimates CCRs worse than synthetic proxies do.
	cl := mustCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge")
	real, err := gen.Generate(gen.RealGraphs()[2].Scale(512), 9)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewProxyProfiler(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	sub := NewSubsampleProfiler(real, 0.02, 7)

	var proxyTotal, subTotal float64
	for _, app := range apps.All() {
		truth, err := MeasureCCR(cl, app, real)
		if err != nil {
			t.Fatal(err)
		}
		proxyCCR, err := pp.Estimate(cl, app)
		if err != nil {
			t.Fatal(err)
		}
		subCCR, err := sub.Estimate(cl, app)
		if err != nil {
			t.Fatal(err)
		}
		proxyErr, err := proxyCCR.Error(truth)
		if err != nil {
			t.Fatal(err)
		}
		subErr, err := subCCR.Error(truth)
		if err != nil {
			t.Fatal(err)
		}
		proxyTotal += proxyErr
		subTotal += subErr
	}
	// The sparse subsample must lose on aggregate (the paper's Section I
	// argument; the full sweep lives in the abl-subsample experiment).
	if subTotal <= proxyTotal {
		t.Errorf("subsample mean error %.4f not worse than proxies %.4f", subTotal/4, proxyTotal/4)
	}
}

func TestSubsampleProfilerValidation(t *testing.T) {
	cl := mustCluster(t, "c4.xlarge")
	empty := &SubsampleProfiler{}
	if _, err := empty.Estimate(cl, apps.NewPageRank()); err == nil {
		t.Error("missing reference should error")
	}
	g, _ := gen.Generate(gen.Spec{Name: "s", Vertices: 100, Edges: 500}, 1)
	bad := NewSubsampleProfiler(g, 2.0, 1)
	if _, err := bad.Estimate(cl, apps.NewPageRank()); err == nil {
		t.Error("invalid fraction should error")
	}
}

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

// Covers reports whether alpha lies within the proxy set's range, widened by
// proxyBandSlack.
func (pp *ProxyProfiler) Covers(alpha float64) bool {
	lo, hi := pp.CoveredAlphaRange()
	return inBand(alpha, lo, hi)
}

func TestProxyCoverage(t *testing.T) {
	pp, err := NewProxyProfiler(2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pp.CoveredAlphaRange()
	if lo != 1.95 || hi != 2.3 {
		t.Fatalf("covered range [%v, %v], want [1.95, 2.3]", lo, hi)
	}
	for _, alpha := range []float64{1.95, 2.1, 2.3, 1.9, 2.35} {
		if !pp.Covers(alpha) {
			t.Errorf("alpha %v should be covered", alpha)
		}
	}
	for _, alpha := range []float64{1.5, 3.0} {
		if pp.Covers(alpha) {
			t.Errorf("alpha %v should not be covered", alpha)
		}
	}
}

// TestDefaultProxyBandMatchesCovers pins the offline band verdict to the
// profiler's own rule: every α in [1.70, 2.60] is covered by DefaultProxyBand
// exactly when a freshly generated default profiler Covers it.
func TestDefaultProxyBandMatchesCovers(t *testing.T) {
	pp, err := NewProxyProfiler(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := DefaultProxyBand(2)
	if math.Abs(lo-1.85) > 1e-9 || math.Abs(hi-2.40) > 1e-9 {
		t.Errorf("default band [%v, %v], want [1.85, 2.40]", lo, hi)
	}
	inside := 0
	for i := 0; i <= 90; i++ {
		alpha := 1.70 + float64(i)/100
		_, _, covered := DefaultProxyBand(alpha)
		if covered != pp.Covers(alpha) {
			t.Errorf("alpha %.2f: DefaultProxyBand covered=%v, Covers=%v", alpha, covered, pp.Covers(alpha))
		}
		if covered {
			inside++
		}
	}
	if inside < 50 || inside > 56 {
		t.Errorf("%d of 91 sweep points inside the band, want the ~55 of [1.85, 2.40]", inside)
	}
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

func TestClosestProxy(t *testing.T) {
	pp, err := NewProxyProfiler(2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]float64{
		1.9:  1.95,
		2.05: 2.1,
		2.5:  2.3,
	}
	for alpha, want := range cases {
		p, err := pp.ClosestProxy(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if p.Alpha != want {
			t.Errorf("ClosestProxy(%v).Alpha = %v, want %v", alpha, p.Alpha, want)
		}
	}
	empty := &ProxyProfiler{}
	if _, err := empty.ClosestProxy(2); err == nil {
		t.Error("empty profiler should error")
	}
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

// TestEnsureCoverageExtendsProxySet also pins DefaultProxyBand's verdict to
// the extension rule: on the default proxy set, EnsureCoverage adds a proxy
// exactly for an α that DefaultProxyBand reports as not covered.
func TestEnsureCoverageExtendsProxySet(t *testing.T) {
	pp, err := NewProxyProfiler(2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Covered alpha: no new proxy.
	added, err := pp.EnsureCoverage(2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, covered := DefaultProxyBand(2.1); added || !covered || len(pp.Proxies) != 3 {
		t.Errorf("alpha 2.1: added=%v, DefaultProxyBand covered=%v, %d proxies; want no growth inside the band", added, covered, len(pp.Proxies))
	}
	// Out-of-range alpha: one new proxy at that alpha.
	added, err = pp.EnsureCoverage(2.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, covered := DefaultProxyBand(2.8); covered {
		t.Error("DefaultProxyBand covers 2.8, but EnsureCoverage extends the default set for it")
	}
	if !added || len(pp.Proxies) != 4 {
		t.Fatalf("expected a 4th proxy, have %d", len(pp.Proxies))
	}
	if pp.Proxies[3].Alpha != 2.8 {
		t.Errorf("new proxy alpha = %v", pp.Proxies[3].Alpha)
	}
	if !pp.Covers(2.8) {
		t.Error("2.8 should now be covered")
	}
	// Invalid alphas error.
	if _, err := pp.EnsureCoverage(0.5, 5); err == nil {
		t.Error("alpha <= 1 should error")
	}
}
