package des

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/logical"
)

func TestLocalClockNoDriftTracksGlobal(t *testing.T) {
	k := NewKernel(1)
	c := k.NewLocalClock(ClockConfig{}, nil)
	k.At(logical.Time(5*logical.Second), func() {
		if c.Now() != k.Now() {
			t.Errorf("clock = %v, global = %v", c.Now(), k.Now())
		}
	})
	k.RunAll()
}

// A resync leaves the clock offset by its residual error; without
// drift the offset then holds until the next resync.
func TestLocalClockOffset(t *testing.T) {
	k := NewKernel(1)
	bound := logical.Duration(logical.Millisecond)
	c := k.NewLocalClock(ClockConfig{SyncBound: bound, SyncPeriod: logical.Second}, k.Rand("sync"))
	var offset logical.Duration
	k.At(logical.Time(logical.Second), func() { offset = c.Error() })
	k.At(logical.Time(1500*logical.Millisecond), func() {
		if offset == 0 || offset < -bound || offset > bound {
			t.Errorf("offset after the resync = %v, want nonzero within ±%v", offset, bound)
		}
		if c.Error() != offset {
			t.Errorf("offset drifted from %v to %v without drift", offset, c.Error())
		}
		if want := k.Now().Add(offset); c.Now() != want {
			t.Errorf("clock = %v, want %v", c.Now(), want)
		}
	})
	k.RunAll()
}

func TestLocalClockDrift(t *testing.T) {
	k := NewKernel(1)
	// +50 ppm fast clock.
	c := k.NewLocalClock(ClockConfig{DriftPPB: 50_000}, nil)
	k.At(logical.Time(logical.Second), func() {
		want := logical.Time(logical.Second + 50*logical.Microsecond)
		if c.Now() != want {
			t.Errorf("clock = %v, want %v", c.Now(), want)
		}
	})
	k.RunAll()
}

func TestLocalClockNegativeDrift(t *testing.T) {
	k := NewKernel(1)
	c := k.NewLocalClock(ClockConfig{DriftPPB: -20_000}, nil)
	k.At(logical.Time(logical.Second), func() {
		want := logical.Time(logical.Second - 20*logical.Microsecond)
		if c.Now() != want {
			t.Errorf("clock = %v, want %v", c.Now(), want)
		}
	})
	k.RunAll()
}

// The inversion must hold on every affine segment, including one that
// starts at a resync, where the local anchor is offset from the global
// one by the residual error.
func TestLocalClockGlobalAtInvertsLocalAt(t *testing.T) {
	k := NewKernel(1)
	c := k.NewLocalClock(ClockConfig{
		DriftPPB:   30_000,
		SyncBound:  logical.Duration(logical.Millisecond),
		SyncPeriod: logical.Second,
	}, k.Rand("sync"))
	check := func(segment logical.Time) {
		for _, d := range []logical.Time{0, 1000, 999_999_999, 7_000_000_001} {
			g := segment + d
			l := c.LocalAt(g)
			back := c.GlobalAt(l)
			diff := int64(back - g)
			if diff < -2 || diff > 2 {
				t.Errorf("round trip %v -> %v -> %v (diff %d)", g, l, back, diff)
			}
		}
	}
	check(0)
	// Sync events are daemons; a plain event keeps the run going past
	// the first resync.
	k.At(logical.Time(1500*logical.Millisecond), func() {})
	k.RunAll()
	if c.refGlobal != logical.Time(logical.Second) {
		t.Fatalf("last resync at %v, want one resync at 1s", c.refGlobal)
	}
	if c.refLocal == c.refGlobal {
		t.Fatalf("resync left no residual offset (anchor %v)", c.refGlobal)
	}
	check(c.refGlobal)
}

// Resyncs must hold the error within E plus the drift one period
// accrues. The drift is fast enough that an unsynced clock leaves that
// bound well before the run ends, so a resync that failed to reset the
// local anchor would show.
func TestLocalClockSyncBoundsError(t *testing.T) {
	k := NewKernel(99)
	const driftPPB = 500_000
	bound := logical.Duration(100 * logical.Microsecond)
	period := logical.Duration(100 * logical.Millisecond)
	c := k.NewLocalClock(ClockConfig{
		DriftPPB:   driftPPB,
		SyncBound:  bound,
		SyncPeriod: period,
	}, k.Rand("sync"))
	unsynced := k.NewLocalClock(ClockConfig{DriftPPB: driftPPB}, nil)
	// After the first sync the error must stay within bound + drift accrual.
	maxAllowed := bound + logical.Duration(mulDivRound(int64(period), driftPPB, 1_000_000_000))
	abs := func(d logical.Duration) logical.Duration {
		if d < 0 {
			return -d
		}
		return d
	}
	var worst logical.Duration
	for ms := 150; ms <= 2000; ms += 50 {
		k.At(logical.Time(ms)*logical.Time(logical.Millisecond), func() {
			if err := abs(c.Error()); err > worst {
				worst = err
			}
		})
	}
	// Just after each resync the error is the residual alone: the drift
	// over 1µs at this rate rounds to nothing.
	for n := 1; n <= 20; n++ {
		at := logical.Time(n)*logical.Time(period) + logical.Time(logical.Microsecond)
		k.At(at, func() {
			if err := abs(c.Error()); err > bound {
				t.Errorf("error %v just after resync %d exceeds E = %v", err, n, bound)
			}
		})
	}
	k.RunAll()
	if worst > maxAllowed {
		t.Errorf("worst clock error %v exceeds allowed %v", worst, maxAllowed)
	}
	if c.refGlobal == 0 {
		t.Error("no syncs happened")
	}
	if e := unsynced.Error(); e <= maxAllowed {
		t.Errorf("unsynced error %v at %v is within %v; the drift does not test resync", e, k.Now(), maxAllowed)
	}
}

// Property: mulDivRound(a, b, b) == a for nonzero b.
func TestMulDivRoundIdentity(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		return mulDivRound(int64(a), int64(b), int64(b)) == int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mulDivRound matches direct evaluation when no overflow occurs.
func TestMulDivRoundSmall(t *testing.T) {
	f := func(a int16, b int16, c int16) bool {
		if c == 0 {
			return true
		}
		want := int64(a) * int64(b) / int64(c)
		return mulDivRound(int64(a), int64(b), int64(c)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// refMulDivRound is mulDivRound as it was before math/bits: the same
// sign rule over a hand-written 64×64→128 multiply and a bit-by-bit
// long division. It is the differential reference for the fast path.
func refMulDivRound(a, b, c int64) int64 {
	neg := false
	ua, ub, uc := a, b, c
	if ua < 0 {
		ua = -ua
		neg = !neg
	}
	if ub < 0 {
		ub = -ub
		neg = !neg
	}
	if uc < 0 {
		uc = -uc
		neg = !neg
	}
	hi, lo := mul64(uint64(ua), uint64(ub))
	q := div128(hi, lo, uint64(uc))
	if neg {
		return -int64(q)
	}
	return int64(q)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := ah*bl + (al*bl)>>32
	w := al*bh + (t & mask)
	hi = ah*bh + (t >> 32) + (w >> 32)
	lo = a * b
	return
}

// div128 returns the low 64 bits of (hi:lo)/d. The remainder stays
// below d <= 2^63, so shifting it never overflows.
func div128(hi, lo, d uint64) uint64 {
	if hi == 0 {
		return lo / d
	}
	var q, r uint64
	for i := 127; i >= 0; i-- {
		r <<= 1
		var bit uint64
		if i >= 64 {
			bit = (hi >> uint(i-64)) & 1
		} else {
			bit = (lo >> uint(i)) & 1
		}
		r |= bit
		if r >= d {
			r -= d
			if i < 64 {
				q |= 1 << uint(i)
			}
		}
	}
	return q
}

// bigMulDivRound is the exact a*b/c, truncated toward zero, reduced to
// its low 64 bits in two's complement (big.Int's And works on the
// two's-complement form of a negative value).
func bigMulDivRound(a, b, c int64) int64 {
	q := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	q.Quo(q, big.NewInt(c))
	return int64(q.And(q, new(big.Int).SetUint64(math.MaxUint64)).Uint64())
}

// mulDivRoundCases are checked against mulDivRound and both references,
// and seed FuzzMulDivRound. The cases after the first six reach the
// 128-bit path the int16/int32 properties above never do: quotients of
// 64 bits and more (hi >= c), MinInt64 as each operand, c = ±1, and the
// largest products (|a|·|b| = 2^126).
var mulDivRoundCases = []struct{ a, b, c, want int64 }{
	{10, 3, 2, 15},
	{1_000_000_000, 50_000, 1_000_000_000, 50_000},
	{-10, 3, 2, -15},
	{10, -3, 2, -15},
	{1 << 40, 1 << 20, 1 << 10, 1 << 50},
	{0, 999, 7, 0},
	{math.MaxInt64, math.MaxInt64, 1, 1},             // 2^126 - 2^64 + 1
	{math.MaxInt64, math.MaxInt64, 2, math.MinInt64}, // 2^125 - 2^63
	{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64},
	{math.MinInt64, math.MinInt64, 1, 0},                  // 2^126
	{math.MinInt64, math.MinInt64, 3, 0x5555555555555555}, // (2^126 - 1)/3
	{math.MinInt64, math.MinInt64, math.MinInt64, math.MinInt64},
	{math.MinInt64, 1, 1, math.MinInt64},
	{math.MinInt64, -1, 1, math.MinInt64}, // 2^63 wraps
	{1, math.MinInt64, -1, math.MinInt64},
	{math.MaxInt64, 1, math.MinInt64, 0},
	{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64},
	{123456789, 987654321, 1, 121932631112635269},
	{7, 9, -1, -63},
	{-7, -9, -1, -63},
	{1 << 62, 1_000_000_000, 1_000_000_000 + 50_000, 4611455445655105148},
}

func TestMulDivRound(t *testing.T) {
	for _, c := range mulDivRoundCases {
		if got := mulDivRound(c.a, c.b, c.c); got != c.want {
			t.Errorf("mulDivRound(%d,%d,%d) = %d, want %d", c.a, c.b, c.c, got, c.want)
		}
		if ref := refMulDivRound(c.a, c.b, c.c); ref != c.want {
			t.Errorf("long division(%d,%d,%d) = %d, want %d", c.a, c.b, c.c, ref, c.want)
		}
		if ref := bigMulDivRound(c.a, c.b, c.c); ref != c.want {
			t.Errorf("math/big(%d,%d,%d) = %d, want %d", c.a, c.b, c.c, ref, c.want)
		}
	}
}

// FuzzMulDivRound checks mulDivRound against the long-division
// reference and math/big over the full int64 range.
func FuzzMulDivRound(f *testing.F) {
	for _, c := range mulDivRoundCases {
		f.Add(c.a, c.b, c.c)
	}
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		if c == 0 {
			return
		}
		got := mulDivRound(a, b, c)
		if ref := refMulDivRound(a, b, c); got != ref {
			t.Fatalf("mulDivRound(%d,%d,%d) = %d, long division says %d", a, b, c, got, ref)
		}
		if ref := bigMulDivRound(a, b, c); got != ref {
			t.Fatalf("mulDivRound(%d,%d,%d) = %d, math/big says %d", a, b, c, got, ref)
		}
	})
}
