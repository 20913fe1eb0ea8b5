// Package rng provides the deterministic pseudo-random source shared by the
// mutators, the generation strategies, and the experiment harness.
//
// The paper's prototype inherits randomness from Peach; reproducing the
// evaluation requires controlled repetitions (10 per configuration), so this
// repository routes all randomness through an explicitly seeded generator.
// The core is xoshiro256**, small, fast, and stdlib-free.
package rng

// RNG is a seeded xoshiro256** generator. The zero value is not usable; use
// New. An RNG is not safe for concurrent use; each worker owns one.
type RNG struct {
	s [4]uint64
}

// splitmix64 is the finalizer of the splitmix64 generator: it whitens one
// state word into one output word. Both seeding and stream splitting build
// on it.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// goldenGamma is splitmix64's golden-ratio state increment.
const goldenGamma = 0x9e3779b97f4a7c15

// New returns a generator seeded from the given value via splitmix64, which
// guarantees a non-zero internal state for every seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += goldenGamma
		r.s[i] = splitmix64(sm)
	}
	return r
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

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Byte returns a uniform byte.
func (r *RNG) Byte() byte { return byte(r.Uint64()) }

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Chance returns true with probability 1/n.
func (r *RNG) Chance(n int) bool { return r.Intn(n) == 0 }

// Range returns a uniform value in [lo, hi] inclusive. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bytes fills and returns a fresh slice of n uniform bytes.
func (r *RNG) Bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.Byte()
	}
	return out
}

// Pick returns a uniform element of the non-empty slice.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Shuffle permutes xs in place (Fisher–Yates).
func Shuffle[T any](r *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// State returns the generator's internal state words, the campaign-checkpoint
// seam: restoring them with SetState resumes the stream exactly where it was,
// so a warm-restarted worker continues the draw sequence it was killed in the
// middle of instead of replaying from exec zero.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a value previously
// obtained from State. The all-zero state is xoshiro256**'s one absorbing
// fixed point (it only emits zeros) and can never be produced by New or by
// stepping a valid state, so it is rejected as corrupt.
func (r *RNG) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errZeroState
	}
	r.s = s
	return nil
}

// errZeroState is returned by SetState for the invalid all-zero state.
var errZeroState = errorString("rng: all-zero state")

// errorString is a stdlib-free error type (the package avoids importing
// anything, keeping the hot-path generator dependency-light).
type errorString string

func (e errorString) Error() string { return string(e) }

// Split derives the seed of worker stream `stream` from a campaign seed, for
// sharding one campaign across parallel workers. Stream 0 is the campaign
// seed itself, so a single-stream campaign draws the exact sequence of the
// unsplit one; streams i > 0 are decorrelated from the campaign stream and
// from each other by a splitmix64 finalizer over the golden-ratio-spaced
// index (New then whitens the result again, so even adjacent streams share
// no structure).
func Split(seed uint64, stream int) uint64 {
	if stream == 0 {
		return seed
	}
	return splitmix64(seed + uint64(stream)*goldenGamma)
}
