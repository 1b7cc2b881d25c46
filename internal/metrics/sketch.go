package metrics

import (
	"math"
)

// Sketch is a deterministic streaming quantile sketch with a fixed,
// data-independent bin layout: log-bucketed base-2 bins (HDR-histogram
// style) with sketchSubBuckets linear sub-buckets per octave, mirrored
// for negative values, plus a dedicated zero bin. Counts are integers,
// so a Sketch is a pure, order-insensitive fold: any permutation of
// Add calls — and any grouping of Merge calls — yields the identical
// state, and therefore byte-identical rendered quantiles. That is the
// property the city-scale determinism gate relies on when statistics
// are aggregated across partitions.
//
// Memory is O(bins): the positive-side array is allocated on first use
// and the negative side only if a negative sample ever arrives
// (latencies never go negative), roughly 16 KiB per populated side.
//
// Quantile answers are bin-snapped: the midpoint of the bin containing
// the requested order statistic. Because counts are exact, the answer
// is always within one bin-width of the exact sorted quantile — a
// relative error of at most 1/sketchSubBuckets (~3%) for values inside
// the clamped exponent range [2^sketchMinExp, 2^sketchMaxExp).
type Sketch struct {
	n    int
	min  float64
	max  float64
	zero int
	pos  []int
	neg  []int
}

// Sketch bin-layout constants. The layout is fixed at compile time so
// every Sketch in every process bins identically.
const (
	// sketchSubBuckets is the number of linear sub-buckets per binary
	// octave; relative bin width (and thus worst-case relative
	// quantile error) is 1/sketchSubBuckets.
	sketchSubBuckets = 32
	// sketchMinExp and sketchMaxExp clamp the Frexp exponent range.
	// Magnitudes outside [2^(sketchMinExp-1), 2^sketchMaxExp) collapse
	// into the extreme bins (min/max remain exact). The range covers
	// every quantity the harness measures — nanosecond latencies up to
	// ~2^63 fit with room to spare.
	sketchMinExp = -64
	sketchMaxExp = 64
	sketchBins   = (sketchMaxExp - sketchMinExp) * sketchSubBuckets
)

// NewSketch returns an empty sketch. The zero value is also ready to use.
func NewSketch() *Sketch { return &Sketch{} }

// sketchBin maps a positive magnitude to its bin index in [0, sketchBins).
func sketchBin(x float64) int {
	frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
	if exp < sketchMinExp {
		return 0
	}
	if exp >= sketchMaxExp {
		return sketchBins - 1
	}
	sub := int((frac - 0.5) * 2 * sketchSubBuckets)
	if sub >= sketchSubBuckets {
		sub = sketchSubBuckets - 1
	}
	return (exp-sketchMinExp)*sketchSubBuckets + sub
}

// sketchMid returns the representative (midpoint) value of a bin.
func sketchMid(bin int) float64 {
	exp := bin/sketchSubBuckets + sketchMinExp
	sub := bin % sketchSubBuckets
	// Bin covers [2^(exp-1)·(1+sub/S), 2^(exp-1)·(1+(sub+1)/S)).
	return math.Ldexp(1+(float64(sub)+0.5)/sketchSubBuckets, exp-1)
}

// sketchWidth returns the width of a bin in value space.
func sketchWidth(bin int) float64 {
	exp := bin/sketchSubBuckets + sketchMinExp
	return math.Ldexp(1.0/sketchSubBuckets, exp-1)
}

// Add records a sample. NaN samples are ignored; negative zero is
// normalized to zero so min/max render identically under any Add order.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x == 0 {
		x = 0
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	switch {
	case x == 0:
		s.zero++
	case x > 0:
		if s.pos == nil {
			s.pos = make([]int, sketchBins)
		}
		s.pos[sketchBin(x)]++
	default:
		if s.neg == nil {
			s.neg = make([]int, sketchBins)
		}
		s.neg[sketchBin(-x)]++
	}
}

// N returns the number of recorded samples.
func (s *Sketch) N() int { return s.n }

// Min returns the exact smallest sample (NaN when empty).
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact largest sample (NaN when empty).
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Merge folds other into s. Merging is associative and commutative up
// to exact equality of the resulting counts, so partition-local
// sketches can be combined in any order with byte-identical results.
func (s *Sketch) Merge(other *Sketch) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.n += other.n
	s.zero += other.zero
	if other.pos != nil {
		if s.pos == nil {
			s.pos = make([]int, sketchBins)
		}
		for i, c := range other.pos {
			s.pos[i] += c
		}
	}
	if other.neg != nil {
		if s.neg == nil {
			s.neg = make([]int, sketchBins)
		}
		for i, c := range other.neg {
			s.neg[i] += c
		}
	}
}

// Quantile returns the bin-snapped q-quantile (0 ≤ q ≤ 1): the midpoint
// of the bin containing the order statistic of rank ⌊q·(n−1)⌋, clamped
// into [min, max] so the answer is monotone in q — a midpoint can lie
// outside the observed range (a lone value sits anywhere in its bin,
// and magnitudes ≥ 2^64 share the clamped edge bin). q ≤ 0 returns the
// exact minimum and q ≥ 1 the exact maximum. Empty sketches return NaN.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int(q * float64(s.n-1)) // 0-indexed order statistic
	// Walk bins in ascending value order: negatives from largest
	// magnitude down, then zero, then positives from smallest up.
	seen := 0
	if s.neg != nil {
		for bin := sketchBins - 1; bin >= 0; bin-- {
			c := s.neg[bin]
			if c == 0 {
				continue
			}
			seen += c
			if rank < seen {
				return s.clamp(-sketchMid(bin))
			}
		}
	}
	seen += s.zero
	if rank < seen {
		return 0
	}
	if s.pos != nil {
		for bin := 0; bin < sketchBins; bin++ {
			c := s.pos[bin]
			if c == 0 {
				continue
			}
			seen += c
			if rank < seen {
				return s.clamp(sketchMid(bin))
			}
		}
	}
	return s.max
}

// clamp bounds a bin midpoint to the observed [min, max] range.
func (s *Sketch) clamp(x float64) float64 {
	return math.Min(math.Max(x, s.min), s.max)
}

// BinWidth returns the width of the bin that the value x falls into —
// the accuracy bound of Quantile around x. Zero (which has a dedicated
// exact bin) reports width 0.
func (s *Sketch) BinWidth(x float64) float64 {
	if x == 0 {
		return 0
	}
	return sketchWidth(sketchBin(math.Abs(x)))
}
