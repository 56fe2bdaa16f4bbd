// Package powerlaw implements the power-law distribution numerics of
// Section III of the paper: the truncated discrete power-law (zeta)
// distribution over vertex degrees, its first moment, the numerical
// procedure for fitting the exponent α from a graph's vertex and edge
// counts (Eq 7, solved with Newton's method), and inverse-CDF sampling
// used by the synthetic graph generator (Algorithm 1).
//
// A graph follows a power law when P(d) ∝ d^(-α) for vertex degree d
// (Eq 3). We work with the truncated normalized form
//
//	P(d) = d^(-α) / Σ_{i=1..D} i^(-α)            (Eq 4)
//
// where D is the maximum degree considered. The first moment is
//
//	E[d] = Σ_{d=1..D} d^(1-α) / Σ_{i=1..D} i^(-α)  (Eq 5)
//
// and is matched to the empirical average degree |E|/|V| (Eq 6) to
// recover α as the root of F(α) = E[d](α) - |E|/|V| (Eq 7).
package powerlaw

import (
	"errors"
	"fmt"
	"math"
)

// DefaultMaxDegree caps the support of the truncated distribution when the
// caller does not supply one. Natural graphs have maximum degrees far below
// their vertex counts, and the partial zeta sums converge long before 10^7
// terms for the α range of interest (1.5..3.5).
const DefaultMaxDegree = 1 << 20 // ~1M

// Dist is a truncated discrete power-law distribution over degrees 1..D
// with exponent Alpha. Construct with NewDist.
type Dist struct {
	Alpha float64
	D     int
	// cdf[i] is P(d <= i+1); cdf[D-1] == 1.
	cdf []float64
}

// NewDist builds the distribution with exponent alpha over degrees 1..maxDegree.
// It returns an error when alpha is not positive or maxDegree < 1.
func NewDist(alpha float64, maxDegree int) (*Dist, error) {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("powerlaw: alpha must be positive and finite, got %v", alpha)
	}
	if maxDegree < 1 {
		return nil, fmt.Errorf("powerlaw: maxDegree must be >= 1, got %d", maxDegree)
	}
	d := &Dist{Alpha: alpha, D: maxDegree}
	pdf := make([]float64, maxDegree)
	sum := 0.0
	for i := 1; i <= maxDegree; i++ {
		p := math.Pow(float64(i), -alpha)
		pdf[i-1] = p
		sum += p
	}
	cdf := pdf // reuse storage; transform pdf -> cdf in place
	acc := 0.0
	for i := range cdf {
		acc += cdf[i] / sum
		cdf[i] = acc
	}
	cdf[maxDegree-1] = 1 // absorb rounding
	d.cdf = cdf
	return d, nil
}

// Quantile returns the smallest degree d with CDF(d) >= u for u in [0,1].
// This is the "multinomial(cdf)" sampling primitive from Algorithm 1 of the
// paper: feeding it a uniform variate yields a power-law distributed degree.
func (ds *Dist) Quantile(u float64) int {
	if u <= 0 {
		return 1
	}
	if u >= 1 {
		return ds.D
	}
	// Binary search the first index with cdf >= u.
	lo, hi := 0, ds.D-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ds.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// partialSums returns (Σ_{i=1..D} i^(-α), Σ_{i=1..D} i^(1-α)) along with the
// log-weighted sums needed for the Newton derivative:
// (Σ ln(i)·i^(-α), Σ ln(i)·i^(1-α)).
func partialSums(alpha float64, maxDegree int) (s0, s1, ls0, ls1 float64) {
	for i := 1; i <= maxDegree; i++ {
		fi := float64(i)
		li := math.Log(fi)
		p := math.Exp(-alpha * li) // i^(-α), stable for large i
		s0 += p
		s1 += fi * p
		ls0 += li * p
		ls1 += li * fi * p
	}
	return s0, s1, ls0, ls1
}

// MeanDegree returns E[d] of the truncated power law with exponent alpha over
// support 1..maxDegree (Eq 5).
//
// Test support: TestPowerLawDegreeDistribution in internal/gen.
func MeanDegree(alpha float64, maxDegree int) float64 {
	s0, s1, _, _ := partialSums(alpha, maxDegree)
	return s1 / s0
}

// ErrNoRoot is returned by FitAlpha when the target average degree is outside
// the range attainable by any alpha in the search bracket.
var ErrNoRoot = errors.New("powerlaw: average degree outside attainable range for alpha in bracket")

// fitLo and fitHi bracket FitAlpha's search: [1.05, 4.5] covers the 1.9..2.4
// band the paper reports for natural graphs with wide margin. fitTol is the
// absolute tolerance on F(α), fitMaxIter the Newton iteration bound.
const (
	fitLo, fitHi = 1.05, 4.5
	fitTol       = 1e-9
	fitMaxIter   = 100
)

// FitAlpha solves Eq 7 for α given the empirical average degree
// avgDegree = |E| / |V| and the support bound D = maxDegree of Eq 4 (zero
// selects DefaultMaxDegree). It runs Newton's method on
//
//	F(α) = Σ d^(1-α) / Σ i^(-α) − avgDegree
//
// with an analytic derivative, falling back to bisection whenever a Newton
// step leaves the bracket (guaranteeing convergence: F is strictly
// decreasing in α).
func FitAlpha(avgDegree float64, maxDegree int) (float64, error) {
	if avgDegree <= 0 || math.IsNaN(avgDegree) || math.IsInf(avgDegree, 0) {
		return 0, fmt.Errorf("powerlaw: average degree must be positive and finite, got %v", avgDegree)
	}
	if maxDegree == 0 {
		maxDegree = DefaultMaxDegree
	}

	f := func(alpha float64) (val, deriv float64) {
		s0, s1, ls0, ls1 := partialSums(alpha, maxDegree)
		val = s1/s0 - avgDegree
		// d/dα (s1/s0) = (s1'·s0 − s1·s0') / s0²  with s1' = −ls1, s0' = −ls0.
		deriv = (-ls1*s0 + s1*ls0) / (s0 * s0)
		return val, deriv
	}

	lo, hi := fitLo, fitHi
	fLo, _ := f(lo)
	fHi, _ := f(hi)
	// F is decreasing: high alpha -> sparse -> small mean degree.
	if fLo < 0 || fHi > 0 {
		return 0, fmt.Errorf("%w: avg degree %.4g attainable range [%.4g, %.4g] for alpha in [%g, %g]",
			ErrNoRoot, avgDegree, avgDegree+fHi, avgDegree+fLo, lo, hi)
	}

	alpha := (lo + hi) / 2
	for i := 0; i < fitMaxIter; i++ {
		val, deriv := f(alpha)
		if math.Abs(val) < fitTol {
			return alpha, nil
		}
		// Maintain the bracket for the bisection fallback.
		if val > 0 {
			lo = alpha
		} else {
			hi = alpha
		}
		next := alpha - val/deriv
		if !(next > lo && next < hi) || math.IsNaN(next) {
			next = (lo + hi) / 2 // bisection step
		}
		if math.Abs(next-alpha) < 1e-13 {
			return next, nil
		}
		alpha = next
	}
	return alpha, nil
}

// FitAlphaForGraph fits α from vertex and edge counts, the form used
// throughout the paper ("with only the number of vertices and edges given").
// For directed graphs pass the total edge count; the average degree used is
// edges/vertices, matching Eq 6.
func FitAlphaForGraph(vertices, edges int64) (float64, error) {
	if vertices <= 0 {
		return 0, fmt.Errorf("powerlaw: vertex count must be positive, got %d", vertices)
	}
	if edges < 0 {
		return 0, fmt.Errorf("powerlaw: edge count must be non-negative, got %d", edges)
	}
	// Degrees cannot exceed the number of other vertices.
	maxDegree := 0
	if vertices-1 < DefaultMaxDegree && vertices > 1 {
		maxDegree = int(vertices - 1)
	}
	return FitAlpha(float64(edges)/float64(vertices), maxDegree)
}
