package logical

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeAdd(t *testing.T) {
	if got := Time(100).Add(50); got != 150 {
		t.Errorf("Add = %d, want 150", got)
	}
	if got := Time(100).Add(-50); got != 50 {
		t.Errorf("Add negative = %d, want 50", got)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := Forever.Add(1); got != Forever {
		t.Errorf("Forever.Add(1) = %d, want Forever", got)
	}
	if got := Time(math.MaxInt64 - 5).Add(100); got != Forever {
		t.Errorf("near-max Add = %d, want Forever", got)
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(150).Sub(100); got != 50 {
		t.Errorf("Sub = %d, want 50", got)
	}
}

func TestDurationConstants(t *testing.T) {
	if Second != 1e9 {
		t.Errorf("Second = %d", Second)
	}
	if Millisecond != 1e6 || Microsecond != 1e3 {
		t.Error("sub-second constants inconsistent")
	}
}

func TestTagCompare(t *testing.T) {
	cases := []struct {
		a, b Tag
		want int
	}{
		{Tag{0, 0}, Tag{0, 0}, 0},
		{Tag{0, 0}, Tag{0, 1}, -1},
		{Tag{0, 1}, Tag{0, 0}, 1},
		{Tag{0, 5}, Tag{1, 0}, -1},
		{Tag{2, 0}, Tag{1, 9}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTagBeforeAfterEqual(t *testing.T) {
	a := Tag{10, 2}
	b := Tag{10, 3}
	if !a.Before(b) || b.Before(a) {
		t.Error("Before wrong")
	}
	if b.Compare(a) <= 0 || a.Compare(b) >= 0 {
		t.Error("after: Compare wrong")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal wrong")
	}
}

func TestTagDelayZeroAdvancesMicrostep(t *testing.T) {
	a := Tag{100, 4}
	got := a.Delay(0)
	want := Tag{100, 5}
	if got != want {
		t.Errorf("Delay(0) = %v, want %v", got, want)
	}
}

func TestTagDelayPositiveResetsMicrostep(t *testing.T) {
	a := Tag{100, 4}
	got := a.Delay(50)
	want := Tag{150, 0}
	if got != want {
		t.Errorf("Delay(50) = %v, want %v", got, want)
	}
}

func TestTagDelayNegativeClampsToZero(t *testing.T) {
	a := Tag{100, 4}
	if got := a.Delay(-7); got != a.Delay(0) {
		t.Errorf("Delay(-7) = %v, want %v", got, a.Delay(0))
	}
}

func TestTagDelayMicrostepOverflow(t *testing.T) {
	a := Tag{100, math.MaxUint32}
	got := a.Delay(0)
	want := Tag{101, 0}
	if got != want {
		t.Errorf("Delay(0) at microstep max = %v, want %v", got, want)
	}
}

func TestTagNext(t *testing.T) {
	a := Tag{7, 0}
	if got := a.Next(); got != (Tag{7, 1}) {
		t.Errorf("Next = %v", got)
	}
}

func TestStringForms(t *testing.T) {
	if s := Forever.String(); s != "forever" {
		t.Errorf("Forever.String = %q", s)
	}
	if s := (Tag{Time(2 * Second), 3}).String(); s != "(2s, 3)" {
		t.Errorf("Tag.String = %q", s)
	}
	if s := Duration(1500 * Millisecond).String(); s != "1.5s" {
		t.Errorf("Duration.String = %q", s)
	}
}

// Property: Delay strictly increases tags for any non-negative duration.
func TestTagDelayStrictlyIncreases(t *testing.T) {
	f := func(tm int64, ms uint32, d int64) bool {
		if tm < 0 {
			tm = -tm
		}
		if d < 0 {
			d = -d
		}
		// Keep values in a range that cannot saturate, where strict
		// monotonicity is guaranteed.
		tag := Tag{Time(tm % (1 << 40)), Microstep(ms)}
		return tag.Before(tag.Delay(Duration(d % (1 << 40))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and consistent with Before.
func TestTagCompareAntisymmetric(t *testing.T) {
	f := func(a1, a2 int64, m1, m2 uint32) bool {
		a := Tag{Time(a1), Microstep(m1)}
		b := Tag{Time(a2), Microstep(m2)}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Before(b) != (a.Compare(b) < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over random triples.
func TestTagCompareTransitive(t *testing.T) {
	f := func(x, y, z int16, mx, my, mz uint8) bool {
		a := Tag{Time(x), Microstep(mx)}
		b := Tag{Time(y), Microstep(my)}
		c := Tag{Time(z), Microstep(mz)}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
