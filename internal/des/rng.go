package des

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random stream (xoshiro256** seeded via
// splitmix64). It is self-contained so that simulation results are stable
// across Go releases, unlike math/rand's unexported default source
// behaviors. Rand is not safe for concurrent use; in DES simulations each
// component owns its stream, which also keeps components' randomness
// independent of one another's call order.
type Rand struct {
	s [4]uint64
	// spare holds a second Gaussian variate from the last Box-Muller
	// transform round.
	spare    float64
	hasSpare bool
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a stream derived from seed. Equal seeds give equal
// streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Stream derives an independent child stream keyed by label. The same
// (parent state at creation, label) pair always yields the same child.
// Deriving streams does not advance the parent.
func (r *Rand) Stream(label string) *Rand {
	// An FNV-1a-style hash over the label, mixed with the parent's
	// state words. The offset 1469598103934665603 is not FNV-1a's
	// 14695981039346656037 (one digit short). Every RNG stream, and so
	// every golden and schedule pin, depends on it: do not replace it
	// with the standard constant or a shared FNV helper.
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRand(h ^ bits.RotateLeft64(r.s[0], 13) ^ bits.RotateLeft64(r.s[2], 41))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("des: Int63n with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int64(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 { return UnitFloat64(r.Uint64()) }

// Range returns a uniform int64 in [lo, hi]. It panics if lo > hi.
func (r *Rand) Range(lo, hi int64) int64 {
	if lo > hi {
		panic("des: Range with lo > hi")
	}
	return lo + r.Int63n(hi-lo+1)
}

// Exp returns an exponentially distributed variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed variate (Box-Muller, polar form).
func (r *Rand) Norm(mean, sigma float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + sigma*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return mean + sigma*u*f
	}
}

// mixStep is one splitmix64 finalization round: a bijective avalanche
// over 64 bits.
func mixStep(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix3 hashes three 64-bit words into one well-mixed word by chaining
// splitmix64 finalization rounds. It is the building block for
// *counter-based* randomness: deriving a variate as a pure function of
// (seed, stream key, counter) makes the draw independent of execution
// interleaving, unlike a sequential stream, which yields values in
// whatever order its consumers happen to call it. The fault-injection
// subsystem keys packet fates on (fault seed, directed link, packet
// index) this way, so the same packet meets the same fate whether the
// simulation runs on one kernel or sharded across a federation.
func Mix3(a, b, c uint64) uint64 {
	h := mixStep(a + 0x9e3779b97f4a7c15)
	h = mixStep(h ^ (b + 0x3c6ef372fe94f82a))
	h = mixStep(h ^ (c + 0xdaa66d2c7ddf743f))
	return h
}

// UnitFloat64 maps 64 random bits to a uniform float64 in [0, 1) with 53
// bits of precision, the same mapping Rand.Float64 uses. Combine with
// Mix3 for counter-based probability draws.
func UnitFloat64(bits uint64) float64 {
	return float64(bits>>11) / (1 << 53)
}
