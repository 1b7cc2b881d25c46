package scenario

import "testing"

// World construction allocates per platform; a regression here is what
// turns a smaller trace ring from a win into a slower city build (the
// collector runs once more during Build when the build's garbage
// outgrows the heap the ring used to pad). A 500-platform city world,
// built but not run, must stay within the measured allocations per
// platform plus slack.
func TestBuildAllocsPerPlatform(t *testing.T) {
	const n = 500
	spec := CityPreset(n)
	spec.Seed = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(spec); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / n
	t.Logf("%.1f allocations per platform", per)
	const bound = 65.0
	if per > bound {
		t.Fatalf("Build allocates %.1f objects per platform, bound %.1f", per, bound)
	}
}
