package des

import (
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
	if c.Syncs() != 1 {
		t.Fatalf("syncs = %d, want 1", c.Syncs())
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
	if c.Syncs() == 0 {
		t.Error("no syncs happened")
	}
	if e := unsynced.Error(); e <= maxAllowed {
		t.Errorf("unsynced error %v at %v is within %v; the drift does not test resync", e, k.Now(), maxAllowed)
	}
}

func TestMulDivRound(t *testing.T) {
	cases := []struct{ a, b, c, want int64 }{
		{10, 3, 2, 15},
		{1_000_000_000, 50_000, 1_000_000_000, 50_000},
		{-10, 3, 2, -15},
		{10, -3, 2, -15},
		{1 << 40, 1 << 20, 1 << 10, 1 << 50},
		{0, 999, 7, 0},
	}
	for _, c := range cases {
		if got := mulDivRound(c.a, c.b, c.c); got != c.want {
			t.Errorf("mulDivRound(%d,%d,%d) = %d, want %d", c.a, c.b, c.c, got, c.want)
		}
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
