package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64(42) != Hash64(42) {
		t.Fatal("Hash64 is not deterministic")
	}
	if Hash64(42) == Hash64(43) {
		t.Fatal("Hash64(42) == Hash64(43): suspicious collision on adjacent inputs")
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 200
	totalFlips := 0
	for i := uint64(0); i < trials; i++ {
		base := Hash64(i)
		flipped := Hash64(i ^ 1)
		diff := base ^ flipped
		for diff != 0 {
			totalFlips += int(diff & 1)
			diff >>= 1
		}
	}
	mean := float64(totalFlips) / trials
	if mean < 24 || mean > 40 {
		t.Errorf("avalanche mean bit flips = %.2f, want near 32", mean)
	}
}

func TestHash2OrderSensitive(t *testing.T) {
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Error("Hash2 should not be symmetric")
	}
}

func TestHash3Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for a := uint64(0); a < 10; a++ {
		for b := uint64(0); b < 10; b++ {
			for c := uint64(0); c < 10; c++ {
				h := Hash3(a, b, c)
				if seen[h] {
					t.Fatalf("collision at (%d,%d,%d)", a, b, c)
				}
				seen[h] = true
			}
		}
	}
}

func TestHashStringBasic(t *testing.T) {
	if HashString("pagerank") == HashString("coloring") {
		t.Error("different strings should hash differently")
	}
	if HashString("x") != HashString("x") {
		t.Error("HashString not deterministic")
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical outputs across different seeds", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over 10 buckets.
	s := New(123)
	const buckets, samples = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expect := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 9 degrees of freedom; 99.9th percentile is about 27.9.
	if chi2 > 28 {
		t.Errorf("chi-squared = %.2f, distribution looks non-uniform: %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(17)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(31)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(13)
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range data {
		sum += v
	}
	s.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	got := 0
	for _, v := range data {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed multiset: %v", data)
	}
}

func TestMul64AgainstBigArithmetic(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via decomposition into 32-bit halves computed independently.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		ll := aLo * bLo
		lh := aLo * bHi
		hl := aHi * bLo
		hh := aHi * bHi
		carry := (ll >> 32) + (lh & 0xffffffff) + (hl & 0xffffffff)
		wantLo := a * b
		wantHi := hh + (lh >> 32) + (hl >> 32) + (carry >> 32)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64Injective(t *testing.T) {
	// SplitMix64's output function is a bijection on 64-bit inputs; check a
	// window for collisions as a regression guard.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Hash64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Hash64 collision: %d and %d -> %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(uint64(i))
	}
	_ = sink
}
