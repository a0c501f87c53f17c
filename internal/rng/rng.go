// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a given
// (seed, topology index, workload) triple must produce the same network and
// the same traffic on every run, on every platform. The standard library's
// math/rand is seedable but its stream-splitting story (independent
// sub-generators for topology vs. traffic vs. scheme tie-breaking) is
// awkward, so we implement xoshiro256** seeded via splitmix64, the
// combination recommended by Blackman & Vigna. Both algorithms are public
// domain.
package rng

import (
	"math"
	"math/bits"
	"slices"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// valid; use New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, guaranteeing a
// well-mixed nonzero state for any seed, including zero.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitmix64(sm)
	}
	return &src
}

// Mix folds seed and any number of salts (topology index, probe index,
// variant number, ...) into one well-mixed derived seed. Every experiment
// runner derives per-run seeds through Mix rather than ad-hoc arithmetic
// like seed*911 or seed+i*7919, which collapse for seed 0 and alias across
// multipliers. Each input passes through a full splitmix64 finalization, so
// Mix(0, a) != Mix(0, b) for a != b and Mix(s, a, b) != Mix(s, b, a).
func Mix(seed uint64, salts ...uint64) uint64 {
	_, out := splitmix64(seed)
	for _, salt := range salts {
		_, s := splitmix64(salt)
		_, out = splitmix64(out ^ s)
	}
	return out
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, and r is advanced, so
// repeated Splits yield distinct streams. Use one Split per concern
// (topology, traffic, arbitration) so adding draws to one concern does not
// perturb the others.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method (no modulo bias).
func (r *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// It is used for open-loop Poisson traffic interarrival times.
func (r *Source) Exp(mean float64) float64 {
	// Inverse-CDF method. 1-Float64() is in (0,1], avoiding log(0).
	u := 1 - r.Float64()
	return -mean * math.Log(u)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniform values from [0, n), in random order.
// It panics if k > n or either is negative.
func (r *Source) Sample(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: invalid Sample arguments")
	}
	// Floyd's algorithm: k draws. A draw that repeats an earlier pick
	// takes j instead, which no earlier step can have picked. Up to
	// pairwiseSample picks are checked by scanning them; more are also
	// kept in an open-addressed table.
	out := make([]int, 0, k)
	var table []int // value+1 per filled cell, 0 for empty
	if k > pairwiseSample {
		table = make([]int, 1<<bits.Len(uint(2*k)))
	}
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if table == nil {
			if slices.Contains(out, t) {
				t = j
			}
		} else if !tableAdd(table, t) {
			t = j
			tableAdd(table, t)
		}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pairwiseSample is the largest k for which Sample checks its picks by a
// linear scan.
const pairwiseSample = 32

// tableAdd inserts v into the open-addressed set table (a power-of-two
// length, never full) and reports whether v was absent.
func tableAdd(table []int, v int) bool {
	mask := uint64(len(table) - 1)
	for i := (uint64(v) * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		switch table[i] {
		case 0:
			table[i] = v + 1
			return true
		case v + 1:
			return false
		}
	}
}
