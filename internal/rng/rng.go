// Package rng provides small, fast, deterministic pseudo-random number
// generators used by every stochastic component in this repository.
//
// All experiments in the paper reproduction must be bit-reproducible across
// runs and platforms, so we do not use math/rand's global state. Instead we
// implement SplitMix64 (for seeding and stateless hashing) and xoshiro256**
// (for bulk stream generation), both public-domain algorithms by Blackman and
// Vigna. A Source can be split into independent child streams, which lets
// parallel workers draw from decorrelated sequences without locking.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both as a seed expander and as a cheap stateless hash.
func splitMix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Hash64 returns a well-mixed 64-bit hash of x. It is stateless and
// deterministic, suitable for hash partitioning decisions.
func Hash64(x uint64) uint64 {
	_, out := splitMix64(x)
	return out
}

// Hash2 mixes two 64-bit values into one hash. Order matters:
// Hash2(a, b) != Hash2(b, a) in general.
func Hash2(a, b uint64) uint64 {
	return Hash2Hashed(a, Hash64(b))
}

// Hash2Hashed is Hash2 with its second operand already hashed:
// Hash2Hashed(a, Hash64(b)) == Hash2(a, b). A loop that mixes many values
// with one constant b hashes b once, outside the loop.
func Hash2Hashed(a, hb uint64) uint64 {
	return Hash64(a ^ (hb + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2)))
}

// Hash3 mixes three 64-bit values into one hash.
func Hash3(a, b, c uint64) uint64 {
	return Hash2(Hash2(a, b), c)
}

// HashString returns a 64-bit FNV-1a style hash of s, further mixed through
// SplitMix64 to improve avalanche behaviour for short strings.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return Hash64(h)
}

// Source is a xoshiro256** generator. The zero value is not valid; construct
// with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation (never seed xoshiro state directly with
// low-entropy values).
func New(seed uint64) *Source {
	var src Source
	state := seed
	for i := range src.s {
		state, src.s[i] = splitMix64(state)
	}
	// xoshiro requires a nonzero state; SplitMix64 outputs are zero for at
	// most one of the four words, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value in the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Split derives an independent child Source. The child's stream is
// decorrelated from the parent's future output, so parallel workers can each
// take a Split without coordination.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xa0761d6478bd642f)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high bits.
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with rate 1,
// via inverse transform sampling.
func (s *Source) ExpFloat64() float64 {
	u := s.Float64()
	// Float64 is in [0,1); 1-u is in (0,1], so the log is finite.
	return -math.Log(1 - u)
}

// NormFloat64 returns a standard normal value via the Box-Muller transform.
func (s *Source) NormFloat64() float64 {
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a pseudo-random permutation of [0, n) as a slice,
// using the Fisher-Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
