package powerlaw

import (
	"math"
	"testing"

	"proxygraph/internal/rng"
)

// sampleDegrees draws n degrees from a truncated power law.
func samplePowerLawDegrees(t *testing.T, alpha float64, n, maxDeg int, seed uint64) []int32 {
	t.Helper()
	d, err := NewDist(alpha, maxDeg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.Quantile(src.Float64()))
	}
	return out
}

func TestFitAlphaMLERecoversKnownAlpha(t *testing.T) {
	for _, alpha := range []float64{1.8, 2.1, 2.5} {
		degrees := samplePowerLawDegrees(t, alpha, 50000, 1<<15, 7)
		got, err := FitAlphaMLE(degrees, 1)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if math.Abs(got-alpha) > 0.05 {
			t.Errorf("alpha=%v: MLE fitted %v", alpha, got)
		}
	}
}

func TestFitAlphaMLEIgnoresBelowDmin(t *testing.T) {
	degrees := samplePowerLawDegrees(t, 2.2, 30000, 1<<14, 9)
	// Adding isolated vertices (degree 0) must not change the fit.
	withZeros := append(append([]int32{}, degrees...), make([]int32, 10000)...)
	a, err := FitAlphaMLE(degrees, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitAlphaMLE(withZeros, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zeros changed the fit: %v vs %v", a, b)
	}
}

func TestFitAlphaMLEErrors(t *testing.T) {
	if _, err := FitAlphaMLE(nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := FitAlphaMLE([]int32{5}, 1); err == nil {
		t.Error("single observation should error")
	}
	if _, err := FitAlphaMLE([]int32{0, 0, 0}, 1); err == nil {
		t.Error("all-below-dmin should error")
	}
}

func TestFitAlphaMLEConcentratedDegrees(t *testing.T) {
	// Every vertex has degree exactly dmin: alpha is effectively unbounded;
	// the fit reports the bracket edge instead of failing.
	degrees := make([]int32, 100)
	for i := range degrees {
		degrees[i] = 1
	}
	got, err := FitAlphaMLE(degrees, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got < 5.9 {
		t.Errorf("concentrated degrees fitted %v, want the bracket edge ~6", got)
	}
}

func TestFitAlphaMLEWithDminCut(t *testing.T) {
	// Fitting only the tail (dmin=4) still recovers alpha.
	degrees := samplePowerLawDegrees(t, 2.1, 80000, 1<<15, 13)
	got, err := FitAlphaMLE(degrees, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.1) > 0.1 {
		t.Errorf("tail fit = %v, want ~2.1", got)
	}
}
