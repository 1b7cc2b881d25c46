// Package logical implements the tagged logical-time model that underpins
// the reactor model of computation and the DEAR tagged-message protocol.
//
// A Tag is a pair (Time, Microstep). Time is a point on a logical timeline
// measured in nanoseconds; Microstep orders events that are logically
// simultaneous but causally distinct (the superdense-time model used by
// reactors and PTIDES). Tags are totally ordered lexicographically.
package logical

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in logical (or simulated physical) time, in nanoseconds
// since an arbitrary epoch. The zero value is the epoch itself.
type Time int64

// Duration is a span of logical time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package so that call sites read
// naturally (e.g. 50*logical.Millisecond).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is the largest representable time point. It is used as the
// "never" sentinel by schedulers waiting for an unbounded future event.
const Forever Time = math.MaxInt64

// Add returns the time point d nanoseconds after t, saturating at Forever
// rather than wrapping on overflow.
func (t Time) Add(d Duration) Time {
	if d >= 0 && t > Forever-Time(d) {
		return Forever
	}
	return t + Time(d)
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as seconds with nanosecond precision, e.g.
// "1.050000000s". Forever renders as "forever".
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return time.Duration(t).String()
}

// String renders the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Microstep counts logically-simultaneous rounds at one time point.
type Microstep uint32

// Tag is a superdense-time tag: a logical time point plus a microstep.
// Tags order all events in a reactor program; two events with the same tag
// are logically simultaneous.
type Tag struct {
	Time      Time
	Microstep Microstep
}

// Compare returns -1, 0 or +1 as t sorts before, equal to, or after u.
func (t Tag) Compare(u Tag) int {
	switch {
	case t.Time < u.Time:
		return -1
	case t.Time > u.Time:
		return 1
	case t.Microstep < u.Microstep:
		return -1
	case t.Microstep > u.Microstep:
		return 1
	default:
		return 0
	}
}

// Before reports whether t sorts strictly before u.
func (t Tag) Before(u Tag) bool { return t.Compare(u) < 0 }

// Equal reports whether the tags are identical.
func (t Tag) Equal(u Tag) bool { return t == u }

// Delay returns the tag of an event scheduled with the given minimum delay
// relative to t. Following reactor semantics, a zero delay advances the
// microstep (strictly later in superdense time, same time point), while a
// positive delay advances the time point and resets the microstep.
func (t Tag) Delay(d Duration) Tag {
	if d == 0 {
		if t.Microstep == math.MaxUint32 {
			return Tag{Time: t.Time.Add(1), Microstep: 0}
		}
		return Tag{Time: t.Time, Microstep: t.Microstep + 1}
	}
	if d < 0 {
		d = 0
		return t.Delay(d)
	}
	return Tag{Time: t.Time.Add(d), Microstep: 0}
}

// Next returns the tag immediately following t in superdense time.
func (t Tag) Next() Tag { return t.Delay(0) }

// String renders the tag as "(time, microstep)".
func (t Tag) String() string {
	return fmt.Sprintf("(%s, %d)", t.Time, t.Microstep)
}
