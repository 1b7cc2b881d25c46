package reactor

import (
	"repro/internal/des"
	"repro/internal/logical"
)

// SimClock supplies physical time to an Environment from a DES kernel,
// optionally through a platform's local (drifting, resynchronized)
// clock, standing in for the paper's MinnowBoard platforms. The
// scheduler reads it for the physical-time barrier, deadlines and
// physical-action tags, and must run inside the clock's process. An
// environment without a clock runs on logical time alone (see Options).
type SimClock struct {
	proc  *des.Process
	local *des.LocalClock // nil = use global kernel time
}

// NewSimClock creates a clock for a scheduler running as process p.
// local may be nil to read global simulated time.
func NewSimClock(p *des.Process, local *des.LocalClock) *SimClock {
	return &SimClock{proc: p, local: local}
}

// Now returns the current physical time.
func (c *SimClock) Now() logical.Time {
	if c.local != nil {
		return c.local.Now()
	}
	return c.proc.Now()
}

// waitUntil blocks the scheduler's process until physical time t or
// until a physical action interrupts it.
func (c *SimClock) waitUntil(t logical.Time) {
	if c.Now() >= t {
		return
	}
	g := t
	if c.local != nil {
		g = c.local.GlobalAt(t)
		// GlobalAt rounds toward zero; make sure the wake-up lands at or
		// after the local target, otherwise a scheduler could spin at the
		// same simulated instant re-requesting the same wake time.
		for c.local.LocalAt(g) < t {
			g = g.Add(1)
		}
	}
	c.proc.WaitUntilInterruptible(g)
}
