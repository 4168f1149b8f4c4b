// Package xrand provides the deterministic, splittable pseudo-random number
// generation used by every stochastic process in this repository.
//
// The requirements that rule out math/rand directly are:
//
//   - Reproducibility across parallel trials: a master seed must expand into
//     an arbitrary number of statistically independent streams, one per
//     trial or per worker, so that a whole experiment is a pure function of
//     (code, seed).
//   - Speed: one COBRA round draws b random neighbours for every informed
//     vertex; one BIPS round draws b neighbours for every vertex of the
//     graph. Bounded-uniform generation is the hottest operation in the
//     repository, so it uses Lemire's nearly-divisionless method.
//
// The generator is xoshiro256**, seeded through splitmix64 (the procedure
// recommended by the xoshiro authors). Streams are derived by seeding
// splitmix64 with master-seed XOR a stream index scrambled by a fixed odd
// constant, which gives well-separated initial states.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine its own stream via Split or NewStream.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// golden is 2^64 / phi, the splitmix64 increment; golden2 and golden3
// are its multiples 2·golden and 3·golden modulo 2^64.
const (
	golden  = 0x9e3779b97f4a7c15
	golden2 = 0x3c6ef372fe94f82a
	golden3 = 0xdaa66d2c7ddf743f
)

// splitmix64 advances *x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += golden
	return mix64(*x)
}

// mix64 is splitmix64's output function: the i-th output (1-based) of a
// splitmix64 sequence seeded with x is mix64(x + i·golden).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scramble is xoshiro256**'s output function of the state word s1.
func scramble(s1 uint64) uint64 {
	return bits.RotateLeft64(s1*5, 7) * 9
}

// New returns a generator seeded from the given seed. Any seed value,
// including zero, yields a valid non-degenerate state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// NewStream returns the stream-th generator derived from a master seed.
// Distinct stream indices yield well-separated generators; the mapping is
// deterministic, so (seed, stream) fully identifies the sequence.
func NewStream(seed, stream uint64) *RNG {
	r := StreamValue(seed, stream)
	return &r
}

// StreamValue is NewStream returning the generator by value, for hot loops
// that derive one short-lived stream per item and want it stack-allocated
// (the per-(round, vertex) draws of the frontier engine). The sequence is
// bit-identical to NewStream(seed, stream).
func StreamValue(seed, stream uint64) RNG {
	var r RNG
	r.Reseed(streamSeed(seed, stream))
	return r
}

// streamSeed is the splitmix64 seed of stream `stream` under a master
// seed. The stream index is scrambled by an odd constant so that
// consecutive indices land far apart in splitmix64's sequence space.
func streamSeed(seed, stream uint64) uint64 {
	return seed ^ (stream*0xd1342543de82ef95 + 0x632be59bd9b4e019)
}

// Prefix is the first two outputs of the stream StreamValue(seed, stream),
// derived without seeding the generator. Reseed sets s0..s3 to the
// splitmix64 words mix64(x + i·golden), i = 1..4; the first output is
// scramble(s1) and the second is scramble(s0^s1^s2), so s3 enters only
// from the third output on. A caller that needs at most two words pays
// two splitmix64 mixes (three with Second) against four for the full
// state, in code small enough to inline into its loop. The sequence is
// unchanged: First and Second are bit-identical to the stream's first two
// Uint64 calls.
//
// A caller that needs a third word, or that gets ok == false, draws from
// StreamValue(seed, stream) instead, starting over from the first word.
type Prefix struct {
	x, s0, s1 uint64
}

// StreamPrefix returns the two-word prefix of StreamValue(seed, stream).
// s0 is mixed here rather than in Second, which keeps both functions
// within the compiler's inlining budget.
func StreamPrefix(seed, stream uint64) Prefix {
	x := streamSeed(seed, stream)
	return Prefix{x: x, s0: mix64(x + golden), s1: mix64(x + golden2)}
}

// First returns the stream's first output.
func (p Prefix) First() uint64 { return scramble(p.s1) }

// Second returns the stream's second output. ok is false when s0, s1 and
// s2 are all zero: Reseed's zero-state guard may then rewrite s0, and
// only the full generator can tell.
func (p Prefix) Second() (w uint64, ok bool) {
	return second(p.s0, p.s1, mix64(p.x+golden3))
}

// second is the stream's second output from the seeded words s0..s2.
func second(s0, s1, s2 uint64) (uint64, bool) {
	return scramble(s0 ^ s1 ^ s2), s0|s1|s2 != 0
}

// Bounded maps one output word onto [0, n) as Uint64n does on its first
// draw (Lemire's multiply-shift). ok is false when the low half of the
// product is below n: Uint64n may then reject the word and draw again,
// so the caller must fall back to the full generator.
func Bounded(word, n uint64) (v uint64, ok bool) {
	hi, lo := bits.Mul64(word, n)
	return hi, lo >= n
}

// Reseed resets the generator state from seed, as New does.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro's all-zero state is absorbing; splitmix64 cannot produce four
	// zero outputs in a row, but guard anyway for clarity.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = golden
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := scramble(r.s1)
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives a new independent generator from this one, advancing this
// generator by one draw. Useful for handing sub-streams to workers.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method: nearly divisionless,
// and exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a fresh slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. Used only by statistics tests, not by hot paths.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
