package des

import "math/rand"

// golden is the splitmix64 increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// Mix is the splitmix64 finaliser: a bijection on 64 bits whose every
// output bit depends on every input bit. Source draws through it, and
// engine.PeerSeed derives per-peer seeds with it.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Source is a splitmix64 generator: 8 bytes of state, an O(1) Seed, and
// one add and one Mix per draw. It implements rand.Source64, so a
// *rand.Rand over it draws 64-bit values without stitching two Int63
// calls. Like math/rand's own sources it is not safe for concurrent use.
type Source struct{ state uint64 }

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// Seed restarts the stream: after Seed(s) the source draws exactly what
// NewSource(s) would.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return Mix(s.state)
}

// Int63 returns the next draw with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 returns a draw in [0, 1): the draw (*rand.Rand).Float64 makes
// over this source, so a holder of a bare Source, kept by value, walks
// the same stream as a *rand.Rand over it.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// NewRand returns a *rand.Rand drawing from a Source seeded with seed.
// Every seeded stream of the simulator and the live runtime is made by it.
func NewRand(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }
