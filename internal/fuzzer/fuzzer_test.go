package fuzzer

import (
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/scenario"
)

// TestFuzzDeterminism is the go-test face of the fuzzer: a bounded,
// fixed-seed campaign on every test run. Each generated spec runs
// single-kernel vs federated across partition counts and GOMAXPROCS
// values; any divergence is shrunk and reported. -short trims the
// iteration count.
func TestFuzzDeterminism(t *testing.T) {
	iters := 24
	if testing.Short() {
		iters = 8
	}
	fail, err := Run(Options{
		Seed:       1,
		Iterations: iters,
		OutDir:     t.TempDir(),
		Log:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatalf("determinism violation (repro at %s):\n%s", fail.SpecPath, fail.Report)
	}
}

// TestFuzzFindsInjectedNondeterminism is the fuzzer's own acceptance
// gate: plant a deliberate nondeterminism bug (a map-iteration-order
// draw mixed into every compute response — see
// scenario.EnableChaosForTesting), and require the campaign to find
// it within the CI iteration budget, shrink it to a ≤ 4-platform
// spec, localize it to a named divergent trace event, and emit a
// parseable ready-to-commit repro.
func TestFuzzFindsInjectedNondeterminism(t *testing.T) {
	restore := scenario.EnableChaosForTesting()
	defer restore()

	dir := t.TempDir()
	fail, err := Run(Options{
		Seed:       7,
		Iterations: 50, // the CI budget; chaos should fall on the first spec
		OutDir:     dir,
		Log:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("injected nondeterminism not found within the iteration budget")
	}
	if fail.Minimal.Platforms > 4 {
		t.Errorf("shrunk repro has %d platforms, want ≤ 4", fail.Minimal.Platforms)
	}
	if fail.Div == nil || fail.Div.Div == nil {
		t.Fatalf("divergence not localized to a trace event: %+v", fail.Div)
	}
	if c := fail.Div.Div.Component(); c == "" {
		t.Error("first divergent event names no component")
	} else {
		t.Logf("divergence localized to component %s kind %s", c, fail.Div.Div.Kind())
	}
	if !strings.Contains(fail.Report, "first divergent event") {
		t.Errorf("repro report does not name the divergent event:\n%s", fail.Report)
	}

	// The emitted spec must be ready to commit: parseable, valid, and
	// carrying the failing partition count.
	data, err := os.ReadFile(fail.SpecPath)
	if err != nil {
		t.Fatalf("repro spec not written: %v", err)
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		t.Fatalf("repro spec does not parse: %v", err)
	}
	if _, err := spec.Normalized(); err != nil {
		t.Fatalf("repro spec does not validate: %v", err)
	}
	if spec.Partitions < 2 {
		t.Errorf("repro spec carries no failing partition count: %d", spec.Partitions)
	}
	if _, err := os.Stat(fail.ReportPath); err != nil {
		t.Errorf("repro report not written: %v", err)
	}
}

// TestShrinkGreedy pins the shrinker's behaviour against a synthetic
// predicate: structure the divergence "needs" survives, everything
// else is stripped, and sizes are driven to their floors.
func TestShrinkGreedy(t *testing.T) {
	spec := Gen(3, 0)
	spec.Platforms = 12
	spec.Rounds = 6
	spec.Degree = 5
	spec.Partitions = 4
	spec.NoiseEvents, spec.NoiseInterval = 100, 50*logical.Microsecond
	spec.Crash = &scenario.CrashPlan{Platform: 9, At: logical.Time(logical.Millisecond)}
	spec.CallTimeout = 5 * logical.Millisecond
	for i := uint64(0); spec.Faults == nil; i++ {
		spec.Faults = Gen(1, i).Faults // any plan; the predicate only checks presence
	}

	// "The bug" reproduces iff a fault plan is installed and at least 3
	// platforms exist.
	pred := func(s scenario.Spec) (bool, error) {
		return s.Faults != nil && s.Platforms >= 3, nil
	}
	min := Shrink(spec, pred, 128)
	if min.Faults == nil {
		t.Error("shrinker dropped the fault plan the divergence needs")
	}
	if min.Platforms != 3 {
		t.Errorf("platforms shrunk to %d, want the predicate floor 3", min.Platforms)
	}
	if min.Crash != nil {
		t.Error("crash plan survived shrinking")
	}
	if min.NoiseEvents != 0 {
		t.Error("noise survived shrinking")
	}
	if min.Rounds != 1 {
		t.Errorf("rounds shrunk to %d, want 1", min.Rounds)
	}
	if min.Degree != 1 {
		t.Errorf("degree shrunk to %d, want 1", min.Degree)
	}
	if min.Partitions != 2 {
		t.Errorf("partitions shrunk to %d, want 2", min.Partitions)
	}
	if _, err := min.Normalized(); err != nil {
		t.Errorf("shrunk spec invalid: %v", err)
	}
}

// FuzzSpecDeterminism is the native Go fuzz target: its corpus is the
// spec JSON codec, so the mutator explores the spec space through the
// same bytes a user's scenario file speaks. Sizes are clamped so one
// execution stays small; specs the clamp cannot make valid are
// skipped. Seed corpus: the fuzzer's first generated specs, committed
// under testdata/fuzz/FuzzSpecDeterminism/ (replayed on every plain
// `go test` run).
func FuzzSpecDeterminism(f *testing.F) {
	for i := uint64(0); i < 4; i++ {
		data, err := scenario.MarshalJSONSpec(Gen(1, i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := scenario.ParseSpec(data)
		if err != nil {
			t.Skip("not a spec")
		}
		spec = clampForFuzz(spec)
		if _, err := spec.Normalized(); err != nil {
			t.Skip("invalid spec")
		}
		_, div, err := exp.CompareSpecModes(spec, []int{2, 3}, nil)
		if err != nil {
			t.Skipf("spec failed to run: %v", err)
		}
		if div != nil {
			t.Fatalf("determinism violation:\n%s", div)
		}
	})
}

// clampForFuzz bounds a mutated spec so one fuzz execution stays
// millisecond-scale: small platform/round/noise counts, durations
// capped, link latency floored (a nanosecond lookahead would make the
// conservative sync grind through millions of windows). The clamp
// preserves validity where it can and leaves genuinely invalid specs
// for Validate to reject.
func clampForFuzz(s scenario.Spec) scenario.Spec {
	clampInt := func(v *int, hi int) {
		if *v > hi {
			*v = hi
		}
	}
	clampDur := func(v *logical.Duration, hi logical.Duration) {
		if *v > hi {
			*v = hi
		}
	}
	clampInt(&s.Platforms, 8)
	clampInt(&s.Rounds, 4)
	clampInt(&s.NoiseEvents, 100)
	clampDur(&s.Gap, 2*logical.Millisecond)
	clampDur(&s.WorkBase, 2*logical.Millisecond)
	clampDur(&s.WorkSpread, 2*logical.Millisecond)
	clampDur(&s.SwitchDelay, 500*logical.Microsecond)
	clampDur(&s.NoiseInterval, 200*logical.Microsecond)
	clampDur(&s.CallTimeout, 20*logical.Millisecond)
	clampDur(&s.LinkLatency, 2*logical.Millisecond)
	// The link latency is the federation lookahead: a nanosecond value
	// under a tens-of-milliseconds horizon would force the conservative
	// sync through ~10⁶ grant windows, so the floor here is what bounds
	// one exec's wall clock, together with the time caps above.
	if s.LinkLatency > 0 && s.LinkLatency < 100*logical.Microsecond {
		s.LinkLatency = 100 * logical.Microsecond
	}
	if c := s.Crash; c != nil {
		cp := *c
		if cp.Platform >= s.Platforms {
			cp.Platform = s.Platforms - 1
		}
		if cp.At > logical.Time(40*logical.Millisecond) {
			cp.At = logical.Time(40 * logical.Millisecond)
		}
		if cp.RestartAt > logical.Time(50*logical.Millisecond) {
			cp.RestartAt = logical.Time(50 * logical.Millisecond)
		}
		clampInt(&cp.RebornRounds, 2)
		s.Crash = &cp
	}
	if f := s.Faults; f != nil {
		fp := *f
		if len(fp.Loss) > 4 {
			fp.Loss = fp.Loss[:4]
		}
		if len(fp.Partitions) > 4 {
			fp.Partitions = fp.Partitions[:4]
		}
		if len(fp.Jitter) > 4 {
			fp.Jitter = fp.Jitter[:4]
		}
		for i := range fp.Jitter {
			clampDur(&fp.Jitter[i].Extra, logical.Millisecond)
		}
		s.Faults = &fp
	}
	return s
}
