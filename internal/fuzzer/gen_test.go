package fuzzer

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// Every generated spec must be valid: the campaign treats a build
// failure as an infrastructure error, so Gen may never hand one over.
// Swept far past any campaign length CI runs.
func TestGenAlwaysValid(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		for i := uint64(0); i < 500; i++ {
			spec := Gen(seed, i)
			if _, err := spec.Normalized(); err != nil {
				t.Fatalf("Gen(%d, %d) invalid: %v\nspec: %+v", seed, i, err, spec)
			}
		}
	}
}

// Gen is a pure function of (seed, index): same inputs, same spec —
// the property that lets a failure report name just two integers as
// its full provenance.
func TestGenDeterministic(t *testing.T) {
	for i := uint64(0); i < 50; i++ {
		a, b := Gen(42, i), Gen(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Gen(42, %d) not reproducible:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(Gen(1, 7), Gen(2, 7)) {
		t.Error("different campaign seeds produced identical specs")
	}
}

// The generator must actually reach the edges it claims to be biased
// toward: the 2-platform floor, degree at its cap, zero noise, zero
// gap, fault plans, crash plans, restarts, and every topology shape.
func TestGenCoversEdges(t *testing.T) {
	const iters = 400
	shapes := map[scenario.Shape]bool{}
	var minPlatforms, degreeCap, zeroNoise, zeroGap, faulted, crashed, restarted, monitored int
	for i := uint64(0); i < iters; i++ {
		s := Gen(1, i)
		shapes[s.Topology] = true
		if s.Platforms == 2 {
			minPlatforms++
		}
		if s.Degree == s.Platforms-1 {
			degreeCap++
		}
		if s.NoiseEvents == 0 {
			zeroNoise++
		}
		if s.Gap == 0 {
			zeroGap++
		}
		if s.Faults != nil {
			faulted++
		}
		if s.Crash != nil {
			crashed++
			if s.Crash.RestartAt > s.Crash.At {
				restarted++
			}
		}
		if s.Monitors != nil {
			monitored++
		}
	}
	for name, count := range map[string]int{
		"2-platform floor": minPlatforms, "degree cap": degreeCap,
		"zero noise": zeroNoise, "zero gap": zeroGap,
		"fault plan": faulted, "crash plan": crashed, "restart": restarted,
		"monitors": monitored,
	} {
		if count < iters/20 {
			t.Errorf("edge %q reached only %d/%d times", name, count, iters)
		}
	}
	for _, shape := range genShapes {
		if !shapes[shape] {
			t.Errorf("shape %s never generated", shape)
		}
	}
}
