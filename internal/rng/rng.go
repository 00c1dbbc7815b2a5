// Package rng provides a tiny deterministic random stream for dataset
// generation and fault noise. Every observation in a scenario draws from
// its own stream seeded by (Seed, PRN, t), and so does every burst or
// jam draw of internal/fault, so streams are re-seeded ~20 times per
// epoch per receiver; math/rand's ALFG source pays a 607-word
// initialization (and a ~4.9 KB allocation) on every Seed, which
// dominated live generation cost (~14 µs per stream on the reference
// machine) and made fault injection ~40× slower inside a burst window.
// This splitmix64 stream seeds in O(1), allocates nothing and draws in a
// few nanoseconds, which is what makes per-observation streams
// affordable at serving scale.
//
// The generator is Steele et al.'s splitmix64 (the seeder of xoshiro and
// java.util.SplittableRandom): a Weyl sequence through a 64-bit finalizer
// with full avalanche, passing BigCrush at this use's stream lengths
// (tens of draws per stream).
package rng

import "math"

// Stream is a splitmix64 random stream. The zero value is a valid stream
// seeded with 0; use New to seed explicitly. Streams are values — copying
// one forks the sequence.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed. Seeding is O(1).
func New(seed int64) Stream {
	return Stream{state: uint64(seed)}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal draw via the Marsaglia polar
// method. The second value of each polar pair is discarded so a stream's
// draws stay independent of how callers interleave distributions.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Mix64 is the splitmix64 finalizer as a pure function: a 64-bit hash
// with full avalanche, for deriving independent seeds from structured
// inputs (base seed, receiver index, PRN, epoch bits). Mixing through it
// is what prevents the additive-seed aliasing where base seed 7 stream 0
// equals base seed 6 stream 1.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
