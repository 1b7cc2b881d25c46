package des

import (
	"math/bits"

	"repro/internal/logical"
)

// LocalClock models the local oscillator of a simulated platform: it runs
// at a slightly different rate than global simulated time (drift, in parts
// per billion) and starts in step with it. An optional synchronization
// service (the AP time-sync substitute) periodically corrects the clock so
// that its error against global time stays within a configured bound —
// the "bounded clock synchronization error E" that PTIDES-style
// safe-to-process analysis relies on.
//
// All arithmetic is integral so results are bit-reproducible.
type LocalClock struct {
	k *Kernel
	// refGlobal/refLocal anchor the affine mapping; DriftPPB is the rate
	// error: local elapses (1 + DriftPPB/1e9) per unit of global time.
	refGlobal logical.Time
	refLocal  logical.Time
	driftPPB  int64

	syncBound  logical.Duration // E: |local-global| stays within this after sync
	syncPeriod logical.Duration
	rng        *Rand
}

// ClockConfig configures a LocalClock.
type ClockConfig struct {
	// DriftPPB is the oscillator rate error in parts per billion.
	// Typical crystal oscillators are within ±50_000 ppb (50 ppm).
	DriftPPB int64
	// SyncBound, if non-zero, enables periodic resynchronization that
	// bounds the residual error to ±SyncBound (the paper's E).
	SyncBound logical.Duration
	// SyncPeriod is the resynchronization interval (default 1s when
	// SyncBound is set).
	SyncPeriod logical.Duration
}

// NewLocalClock creates a clock on the kernel. The rng (may be nil when
// SyncBound is zero) drives the residual error after each resync.
func (k *Kernel) NewLocalClock(cfg ClockConfig, rng *Rand) *LocalClock {
	c := &LocalClock{
		k:          k,
		refGlobal:  k.now,
		refLocal:   k.now,
		driftPPB:   cfg.DriftPPB,
		syncBound:  cfg.SyncBound,
		syncPeriod: cfg.SyncPeriod,
		rng:        rng,
	}
	if c.syncBound > 0 {
		if c.syncPeriod <= 0 {
			c.syncPeriod = logical.Second
		}
		c.scheduleSync()
	}
	return c
}

func (c *LocalClock) scheduleSync() {
	c.k.AfterDaemon(c.syncPeriod, func() {
		// Resynchronize: jump the local clock to global time plus a
		// residual error uniform in [-E, E].
		residual := logical.Duration(0)
		if c.rng != nil {
			residual = logical.Duration(c.rng.Range(int64(-c.syncBound), int64(c.syncBound)))
		}
		c.refGlobal = c.k.now
		c.refLocal = c.k.now.Add(residual)
		c.scheduleSync()
	})
}

// Now returns the current local time.
func (c *LocalClock) Now() logical.Time {
	return c.LocalAt(c.k.now)
}

// LocalAt maps a global time to this clock's local time.
func (c *LocalClock) LocalAt(global logical.Time) logical.Time {
	elapsed := int64(global - c.refGlobal)
	skew := mulDivRound(elapsed, c.driftPPB, 1_000_000_000)
	return c.refLocal.Add(logical.Duration(elapsed + skew))
}

// GlobalAt maps a local time to global time under the current affine
// segment (valid until the next resync).
func (c *LocalClock) GlobalAt(local logical.Time) logical.Time {
	dl := int64(local - c.refLocal)
	// Invert elapsed*(1e9+ppb)/1e9 = dl.
	elapsed := mulDivRound(dl, 1_000_000_000, 1_000_000_000+c.driftPPB)
	return c.refGlobal.Add(logical.Duration(elapsed))
}

// Error returns the current local-minus-global error.
func (c *LocalClock) Error() logical.Duration {
	return logical.Duration(c.Now() - c.k.now)
}

// mulDivRound computes a*b/c with int64 operands, rounding toward zero,
// using a 128-bit intermediate product so that the magnitudes used here
// (times up to ~292 years in ns, ppb up to 1e9) cannot overflow. A
// quotient beyond 64 bits keeps its low 64 bits: dividing hi%c first
// is what keeps bits.Div64 from panicking on hi >= c.
func mulDivRound(a, b, c int64) int64 {
	if c == 0 {
		panic("des: division by zero")
	}
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
	d := uint64(uc)
	hi, lo := bits.Mul64(uint64(ua), uint64(ub))
	q, _ := bits.Div64(hi%d, lo, d)
	if neg {
		return -int64(q)
	}
	return int64(q)
}
