// Package rng provides deterministic, splittable random number
// generation for reproducible federated-learning simulations.
//
// Every experiment in this repository is driven by a single root seed.
// Sub-streams (per client, per round, per dataset shard) are derived by
// mixing labels into the root seed with SplitMix64, so adding a new
// consumer of randomness never perturbs the streams of existing ones.
package rng

import (
	"math"
	"math/rand/v2"
)

// splitMix64 advances a SplitMix64 state and returns the next value.
// It is the standard seeding mixer recommended for PCG-family
// generators; see Steele et al., "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix derives a new seed from a base seed and a sequence of labels.
// Mix is pure: the same inputs always produce the same output, and
// distinct label sequences produce (with overwhelming probability)
// distinct seeds.
func Mix(seed uint64, labels ...uint64) uint64 {
	s := splitMix64(seed)
	for _, l := range labels {
		s = splitMix64(s ^ l)
	}
	return s
}

// RNG is a deterministic random source with convenience helpers used
// throughout the simulator. It wraps a PCG generator from
// math/rand/v2 and is NOT safe for concurrent use; derive one RNG per
// goroutine with Split.
type RNG struct {
	src *rand.Rand
	// seed retains the construction seed so the RNG can be split.
	seed uint64
}

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG {
	lo := splitMix64(seed)
	hi := splitMix64(lo)
	return &RNG{src: rand.New(rand.NewPCG(lo, hi)), seed: seed}
}

// Split derives an independent RNG labelled by the given values.
// Splitting the same RNG with the same labels always yields an
// identically-seeded child, regardless of how much the parent has been
// consumed.
func (r *RNG) Split(labels ...uint64) *RNG {
	return New(Mix(r.seed, labels...))
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n). n must be > 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Normal returns a sample from the standard normal distribution.
func (r *RNG) Normal() float64 { return r.src.NormFloat64() }

// NormalScaled returns a sample from N(mean, stddev²).
func (r *RNG) NormalScaled(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), consuming
// the stream exactly as Perm(len(p)) does.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.src.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle permutes the first n elements using the provided swap
// function, matching the contract of rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Dirichlet fills out with a sample from a symmetric Dirichlet
// distribution with concentration alpha (> 0). The result sums to 1.
// Samples are drawn via Gamma(alpha, 1) marginals.
func (r *RNG) Dirichlet(alpha float64, out []float64) {
	var sum float64
	for i := range out {
		out[i] = r.Gamma(alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alpha): fall back to a
		// one-hot sample, the limiting distribution as alpha -> 0.
		out[r.IntN(len(out))] = 1
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Gamma returns a sample from Gamma(shape, 1) using the
// Marsaglia–Tsang method, with Ahrens–Dieter boosting for shape < 1.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleWithoutReplacement returns k distinct indices from [0, n)
// chosen uniformly at random. It panics only via IntN if n <= 0; when
// k >= n it returns a permutation of all n indices.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}
