// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the SISG reproduction.
//
// Training skip-gram models draws billions of random numbers (window sizes,
// negative samples, subsampling coin flips). math/rand's global source is a
// mutex-guarded bottleneck under the Hogwild-style parallel trainers in
// internal/sgns and internal/dist, so every goroutine owns its own RNG
// stream derived from a single master seed. Splitting is deterministic:
// the same master seed always yields the same per-worker streams, which
// keeps every experiment in this repository reproducible bit-for-bit on a
// single machine.
package rng

import "math"

// splitmix64 is used both as a stand-alone generator and as the seeding
// procedure for xoshiro256** streams, as recommended by Vigna.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; use
// Split to derive independent streams for concurrent workers.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, per the xoshiro
// reference implementation. Any seed, including zero, is valid.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts r, in place, on the stream New(seed) returns — for a
// generator held by value inside its owner's state.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; splitmix64 cannot produce
	// four zeros from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the high 32 bits of the next value.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0. See
// Uint64n for the method.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0. A power
// of two keeps the low bits of one draw; any other n takes v % n of the
// first draw v at or above 2^64 mod n (-n % n), which leaves a whole
// number of copies of [0, n) and so no modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling over the largest multiple of n.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// NormFloat64 returns a standard normal variate using the polar
// Box–Muller transform. A cached spare halves the rejection cost.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// State returns the generator's internal state, for checkpointing. A
// generator restored with SetState produces the identical stream the
// original would have produced from this point on.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a value obtained
// from State. The all-zero state is invalid for xoshiro and is replaced by
// a fixed non-zero state rather than accepted.
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}

// Split derives a new independent generator from this one. The derived
// stream is a function of the parent's current state, so calling Split n
// times yields n distinct deterministic streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// It panics if p is not in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric probability out of (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^s via inverse-CDF on a precomputed table. For hot loops use
// the Zipf type below instead of this convenience method.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
// Construction is O(n); sampling is O(log n).
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, rng: r}
}

// Sample returns a rank in [0, n), smaller ranks being more likely.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
