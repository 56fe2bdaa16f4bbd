package powerlaw

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"proxygraph/internal/rng"
)

// PDF returns P(d) for degree d, or 0 if d is outside 1..D.
func (ds *Dist) PDF(d int) float64 {
	if d < 1 || d > ds.D {
		return 0
	}
	if d == 1 {
		return ds.cdf[0]
	}
	return ds.cdf[d-1] - ds.cdf[d-2]
}

// CDF returns P(degree <= d).
func (ds *Dist) CDF(d int) float64 {
	if d < 1 {
		return 0
	}
	if d >= ds.D {
		return 1
	}
	return ds.cdf[d-1]
}

func TestNewDistValidation(t *testing.T) {
	cases := []struct {
		alpha float64
		maxD  int
	}{
		{0, 10}, {-1, 10}, {math.NaN(), 10}, {math.Inf(1), 10}, {2.0, 0}, {2.0, -5},
	}
	for _, c := range cases {
		if _, err := NewDist(c.alpha, c.maxD); err == nil {
			t.Errorf("NewDist(%v, %d): expected error", c.alpha, c.maxD)
		}
	}
	if _, err := NewDist(2.1, 1000); err != nil {
		t.Errorf("NewDist(2.1, 1000): unexpected error %v", err)
	}
}

func TestPDFSumsToOne(t *testing.T) {
	for _, alpha := range []float64{1.5, 1.95, 2.1, 2.3, 3.0} {
		d, err := NewDist(alpha, 5000)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := 1; i <= 5000; i++ {
			sum += d.PDF(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: PDF sums to %v, want 1", alpha, sum)
		}
	}
}

func TestPDFMonotoneDecreasing(t *testing.T) {
	d, err := NewDist(2.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 1000; i++ {
		if d.PDF(i) < d.PDF(i+1) {
			t.Fatalf("PDF not decreasing at degree %d: %v < %v", i, d.PDF(i), d.PDF(i+1))
		}
	}
}

func TestPDFOutOfSupport(t *testing.T) {
	d, _ := NewDist(2.0, 100)
	if d.PDF(0) != 0 || d.PDF(-3) != 0 || d.PDF(101) != 0 {
		t.Error("PDF outside support should be 0")
	}
}

func TestCDFProperties(t *testing.T) {
	d, _ := NewDist(2.0, 500)
	if d.CDF(0) != 0 {
		t.Error("CDF(0) should be 0")
	}
	if d.CDF(500) != 1 || d.CDF(10000) != 1 {
		t.Error("CDF at or beyond D should be 1")
	}
	prev := 0.0
	for i := 1; i <= 500; i++ {
		c := d.CDF(i)
		if c < prev {
			t.Fatalf("CDF not monotone at %d", i)
		}
		prev = c
	}
}

func TestHigherAlphaIsSparser(t *testing.T) {
	// Small alpha -> high density (paper Section III-A1).
	m195 := MeanDegree(1.95, 1<<16)
	m21 := MeanDegree(2.1, 1<<16)
	m23 := MeanDegree(2.3, 1<<16)
	if !(m195 > m21 && m21 > m23) {
		t.Errorf("mean degrees not decreasing in alpha: %v, %v, %v", m195, m21, m23)
	}
}

func TestMeanDegreeMatchesTableII(t *testing.T) {
	// Table II synthetic graphs: N=3.2M with alpha 1.95/2.1/2.3 give
	// ~42M/16M/7M edges, i.e. average degrees ~13.1/5.0/2.2.
	// With support capped at D=N the model reproduces that band.
	cases := []struct {
		alpha float64
		loAvg float64
		hiAvg float64
	}{
		{1.95, 10, 16},
		{2.1, 4, 7},
		{2.3, 1.8, 3.2},
	}
	for _, c := range cases {
		m := MeanDegree(c.alpha, 3_200_000)
		if m < c.loAvg || m > c.hiAvg {
			t.Errorf("alpha=%v: mean degree %v outside [%v, %v]", c.alpha, m, c.loAvg, c.hiAvg)
		}
	}
}

func TestQuantileInverseOfCDF(t *testing.T) {
	d, _ := NewDist(2.2, 2000)
	for _, u := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.9999, 1} {
		q := d.Quantile(u)
		if q < 1 || q > 2000 {
			t.Fatalf("Quantile(%v) = %d out of support", u, q)
		}
		if d.CDF(q) < u {
			t.Errorf("CDF(Quantile(%v)) = %v < u", u, d.CDF(q))
		}
		if q > 1 && d.CDF(q-1) >= u && u > 0 {
			t.Errorf("Quantile(%v) = %d is not minimal", u, q)
		}
	}
}

func TestQuantileSamplingMatchesPDF(t *testing.T) {
	// Draw many samples through the inverse CDF and compare empirical
	// frequencies of low degrees to the analytic PDF.
	d, _ := NewDist(2.1, 10000)
	src := rng.New(42)
	const n = 200000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[d.Quantile(src.Float64())]++
	}
	for deg := 1; deg <= 5; deg++ {
		want := d.PDF(deg)
		got := float64(counts[deg]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("degree %d: empirical freq %v vs PDF %v", deg, got, want)
		}
	}
}

func TestFitAlphaRecoversKnownAlpha(t *testing.T) {
	// Round-trip: compute the mean degree of a known alpha, then fit it back.
	for _, alpha := range []float64{1.8, 1.95, 2.1, 2.3, 2.8} {
		const D = 100000
		mean := MeanDegree(alpha, D)
		got, err := FitAlpha(mean, D)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if math.Abs(got-alpha) > 1e-6 {
			t.Errorf("alpha=%v: fitted %v", alpha, got)
		}
	}
}

func TestFitAlphaForGraphTableII(t *testing.T) {
	// The paper reports natural-graph alphas in roughly 1.9..2.4 and the
	// synthetic proxies at 1.95/2.1/2.3. Fit alphas for the Table II
	// synthetic graph sizes and check they land near the declared values.
	cases := []struct {
		name     string
		vertices int64
		edges    int64
		wantLo   float64
		wantHi   float64
	}{
		{"synthetic_one", 3_200_000, 42_011_862, 1.85, 2.05},
		{"synthetic_two", 3_200_000, 15_962_953, 2.0, 2.2},
		{"synthetic_three", 3_200_000, 7_061_709, 2.15, 2.45},
	}
	for _, c := range cases {
		got, err := FitAlphaForGraph(c.vertices, c.edges)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got < c.wantLo || got > c.wantHi {
			t.Errorf("%s: alpha = %v, want in [%v, %v]", c.name, got, c.wantLo, c.wantHi)
		}
	}
}

func TestFitAlphaMonotone(t *testing.T) {
	// Denser graphs must fit smaller alphas.
	a1, err := FitAlpha(20, 100000)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := FitAlpha(3, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if a1 >= a2 {
		t.Errorf("denser graph fitted larger alpha: %v >= %v", a1, a2)
	}
}

func TestFitAlphaErrors(t *testing.T) {
	if _, err := FitAlpha(-1, 0); err == nil {
		t.Error("negative average degree should error")
	}
	if _, err := FitAlpha(math.NaN(), 0); err == nil {
		t.Error("NaN average degree should error")
	}
	// Average degree 1e6 is unattainable with alpha >= 1.05 and D = 4096.
	if _, err := FitAlpha(1e6, 4096); !errors.Is(err, ErrNoRoot) {
		t.Errorf("expected ErrNoRoot, got %v", err)
	}
	if _, err := FitAlphaForGraph(0, 10); err == nil {
		t.Error("zero vertices should error")
	}
	if _, err := FitAlphaForGraph(10, -1); err == nil {
		t.Error("negative edges should error")
	}
}

func TestFitAlphaRoundTripProperty(t *testing.T) {
	// Property: for any alpha in the natural-graph band, fitting the model
	// mean recovers alpha within tolerance.
	f := func(raw uint16) bool {
		alpha := 1.6 + float64(raw)/float64(1<<16)*1.4 // in [1.6, 3.0)
		const D = 1 << 14
		mean := MeanDegree(alpha, D)
		got, err := FitAlpha(mean, D)
		return err == nil && math.Abs(got-alpha) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDistMeanConsistency(t *testing.T) {
	d, _ := NewDist(2.05, 30000)
	// MeanDegree for the Dist's α and D must equal the direct sum Σ d·P(d).
	direct := 0.0
	for i := 1; i <= 30000; i++ {
		direct += float64(i) * d.PDF(i)
	}
	if mean := MeanDegree(d.Alpha, d.D); math.Abs(direct-mean) > 1e-6*mean {
		t.Errorf("MeanDegree=%v vs direct sum %v", mean, direct)
	}
}

func BenchmarkFitAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := FitAlpha(13.1, 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantile(b *testing.B) {
	d, _ := NewDist(2.1, 1<<20)
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Quantile(src.Float64())
	}
}
