package powerlaw

import (
	"fmt"
	"math"
)

// This file adds maximum-likelihood α estimation from observed degrees —
// the Clauset–Shalizi–Newman approach — complementing the paper's
// moment-matching fit (Eq 7), which only needs |V| and |E|. When the full
// degree sequence is available (e.g. from proxygraph stats), the MLE uses all
// of it and is robust to the tail truncation that skews moment fits.

// FitAlphaMLE estimates α by maximizing the discrete power-law likelihood
// over degrees >= dmin:
//
//	L(α) = Σ_{d >= dmin} count(d) · [ -α·ln d − ln ζ(α, dmin) ]
//
// where ζ(α, dmin) is the truncated zeta Σ_{i=dmin..D} i^(-α). degrees may
// contain zeros (isolated vertices), which are ignored along with anything
// below dmin. dmin <= 0 selects 1.
func FitAlphaMLE(degrees []int32, dmin int) (float64, error) {
	if dmin <= 0 {
		dmin = 1
	}
	var (
		n      float64
		sumLog float64
		maxDeg int
	)
	for _, d := range degrees {
		if int(d) < dmin {
			continue
		}
		n++
		sumLog += math.Log(float64(d))
		if int(d) > maxDeg {
			maxDeg = int(d)
		}
	}
	return solveMLE(n, sumLog, dmin, maxDeg)
}

// solveMLE finds α solving the score equation
//
//	Σ_{i=dmin..D} ln(i)·i^(-α) / Σ_{i=dmin..D} i^(-α) = sumLog / n
//
// The left side is strictly decreasing in α, so bisection converges.
func solveMLE(n, sumLog float64, dmin, maxDeg int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("powerlaw: need at least 2 observations >= %d for an MLE fit", dmin)
	}
	if maxDeg <= dmin {
		// Every observation sits at dmin: the decay rate is unidentifiable
		// (any steep alpha fits); report the bracket edge.
		return 6.0, nil
	}
	meanLog := sumLog / n
	expectedLog := func(alpha float64) float64 {
		var z, lz float64
		for i := dmin; i <= maxDeg; i++ {
			fi := float64(i)
			p := math.Exp(-alpha * math.Log(fi))
			z += p
			lz += math.Log(fi) * p
		}
		return lz / z
	}
	lo, hi := 1.01, 6.0
	if expectedLog(lo) < meanLog {
		return 0, fmt.Errorf("powerlaw: degrees too heavy-tailed for alpha > %.2f", lo)
	}
	if expectedLog(hi) > meanLog {
		// Degrees so concentrated at dmin that α is effectively unbounded;
		// report the bracket edge.
		return hi, nil
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if expectedLog(mid) > meanLog {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
