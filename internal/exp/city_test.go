package exp

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// cityGateConfig sizes the E14 gates: trace capacity (and thus
// per-partition recorder memory) is linear in rounds × platforms, so
// the 5000-platform sweep trims the round count — in short mode (the
// CI cityscale job) further than in a full run. Under the race
// detector the platform count drops instead: the race job exists to
// find data races across the same partition/goroutine boundaries, not
// to re-run the full-scale gate (the cityscale CI job owns that), and
// race instrumentation is ~10× slower.
func cityGateConfig() CityConfig {
	cfg := CityConfig{Platforms: DefaultCityPlatforms, Rounds: 3}
	if testing.Short() {
		cfg.Rounds = 2
	}
	if raceDetectorEnabled {
		cfg.Platforms, cfg.Rounds = 500, 2
	}
	return cfg
}

// The E14 flagship gate: the 5000-platform city scenario produces
// byte-identical canonical reports and traces on a single kernel and
// federated at 4 and 16 partitions, for the city and the city one
// platform smaller (whose behaviour must differ — the gate's
// non-vacuity check).
func TestCityScaleDeterminism(t *testing.T) {
	cfg := cityGateConfig()
	cfg.Seed = 0xC17
	refs, err := CheckDeterminism(CityGateSpecs(cfg), []int{4, 16}, nil, RequireTraffic)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		if r := ref.Report(); !strings.HasPrefix(r, "scenario city topology=ring") {
			t.Errorf("spec %d report header = %q", i, r[:min(len(r), 60)])
		}
	}
}

// The canonical report must not depend on how many OS threads the
// federation may use: re-run the 16-partition city world under varied
// GOMAXPROCS values and require byte-equality with the single-kernel
// reference.
func TestCityScaleGOMAXPROCSIndependence(t *testing.T) {
	cfg := cityGateConfig()
	cfg.Rounds = 2
	cfg.Seed = 0xC17
	procs := []int{1, 4}
	if testing.Short() {
		procs = []int{4}
	}
	if _, err := CheckDeterminism([]scenario.Spec{CitySpec(cfg)}, []int{16}, procs, nil); err != nil {
		t.Fatal(err)
	}
}

// The city control plane must stay free of all-pairs fan-out: scenario
// worlds wire clients through static proxies (no SD interest is ever
// declared), so every SD offer fans out to exactly zero subscribers —
// the counters pin that the interest-based routing path is in effect
// and that discovery cost cannot scale with platforms².
func TestCityControlPlaneInterestRouted(t *testing.T) {
	res, err := RunCityScale(CityConfig{Platforms: 600, Rounds: 2, Partitions: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.CtrlSends == 0 {
		t.Fatal("no SD control-plane sends recorded")
	}
	if res.Result.CtrlFanout != 0 {
		t.Errorf("ctrlFanout = %d, want 0 (no platform declares SD interest in scenario worlds)",
			res.Result.CtrlFanout)
	}
	if res.Messages == 0 || res.MsgPerSecPerCore <= 0 {
		t.Errorf("throughput not measured: messages=%d rate=%f", res.Messages, res.MsgPerSecPerCore)
	}
}

// The canonical report is O(platforms): exactly one fixed-width line
// per platform plus a header and a totals line, regardless of how many
// messages flowed.
func TestCityReportIsPerPlatform(t *testing.T) {
	res, err := RunScenario(CitySpec(CityConfig{Platforms: 300, Rounds: 2, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(res.Report(), "\n")
	if want := 300 + 2; lines != want {
		t.Errorf("report has %d lines, want %d (header + one per platform + totals)", lines, want)
	}
}
