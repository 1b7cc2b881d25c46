package exp

import (
	"fmt"

	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// --- Experiment E16: online runtime verification ---
//
// The paper's pure-function determinism claim becomes an observability
// story only if a run can be judged safe *while it happens*. E16
// attaches the standard safety library (internal/monitor) to the E10
// mesh — every kernel's trace stream feeds an online monitor engine
// teed onto the same des.Tracer hook as the trace recorder — and gates
// two properties:
//
//   - verdict determinism: the merged monitor verdicts (violation
//     counts, commutative violation hash, canonically-first violation)
//     are byte-identical across single-kernel and federated execution
//     at every partition count and GOMAXPROCS setting
//     (CheckDeterminism over MonitorGateSpecs);
//   - violation reproducibility: a run that trips a monitor dumps the
//     canonical trace prefix up to the violation's anchoring record,
//     and re-evaluating the dumped prefix offline (monitor.Evaluate)
//     reproduces that violation — the E13 record/replay contract
//     extended to verdicts. Replay asserts *containment* (the dumped
//     violation appears in the replayed verdicts, and replay is
//     deterministic), not first-violation equality: cutting the trace
//     may flush other components' in-flight obligations as unresolved,
//     which can anchor earlier (see DESIGN.md).

// MonitorConfig parameterizes the E16 run.
type MonitorConfig struct {
	// Platforms is the mesh size; DefaultMonitorPlatforms when 0.
	Platforms int
	// Seed drives every random stream of the world.
	Seed uint64
}

// DefaultMonitorPlatforms is the E16 mesh size — the E10 scale, small
// enough for the partitions × GOMAXPROCS × seeds sweep to stay cheap.
const DefaultMonitorPlatforms = 8

// MonitoredSpec compiles the config into the E16 scenario: the mesh
// preset with a crash-and-restart plan (so the rebound-within monitor
// has a real obligation to discharge), a call timeout (so calls into
// the outage fail observably) and the standard safety library with
// spec-derived deadlines. A healthy run checks every property and
// violates none.
func MonitoredSpec(cfg MonitorConfig) scenario.Spec {
	n := cfg.Platforms
	if n <= 0 {
		n = DefaultMonitorPlatforms
	}
	spec := scenario.MeshPreset(n)
	spec.Name = "monitored"
	spec.Seed = cfg.Seed
	spec.CallTimeout = 6 * logical.Millisecond
	spec.Crash = &scenario.CrashPlan{
		Platform:     1,
		At:           4 * logical.Time(logical.Millisecond),
		RestartAt:    9 * logical.Time(logical.Millisecond),
		RebornRounds: 2,
	}
	spec.Monitors = scenario.DefaultMonitors(spec)
	return spec
}

// BrokenMonitoredSpec returns a deliberately violating variant of the
// E16 scenario: the responded-within deadline is tightened below the
// call timeout, so every call that expires into the platform-1 outage
// resolves observably but *late* — tripping the monitor without
// touching any test-only hook. The violation-repro round trip (dump
// the trace prefix, replay it offline, find the same violation) runs
// on it.
func BrokenMonitoredSpec(seed uint64) scenario.Spec {
	spec := MonitoredSpec(MonitorConfig{Seed: seed})
	spec.Name = "monitored-broken"
	spec.Monitors = &scenario.MonitorSpec{
		NoSilentCorruption: true,
		RespondedWithin:    2 * logical.Millisecond,
		ReboundWithin:      spec.Monitors.ReboundWithin,
	}
	return spec
}

// MonitorGateSpecs is the E16 gate list: n monitored specs at
// cfg.Platforms, one platform fewer, and so on. MonitoredSpec consumes
// no seed, so a seed list would re-run one behaviour; the platform
// count changes the ring and with it every verdict count. Gate it with
// RequireMonitorChecks.
func MonitorGateSpecs(cfg MonitorConfig, n int) []scenario.Spec {
	if cfg.Platforms <= 0 {
		cfg.Platforms = DefaultMonitorPlatforms
	}
	specs := make([]scenario.Spec, n)
	for i := range specs {
		c := cfg
		c.Platforms -= i
		specs[i] = MonitoredSpec(c)
	}
	return specs
}

// DumpViolationPrefix writes the canonical trace prefix of a violated
// run — every record up to and including the first violation's
// anchoring record — to path, and returns that first violation. This
// is the artifact a monitored run leaves behind for offline diagnosis:
// ReplayViolationDump re-evaluates it to the same verdict. It fails if
// the run has no violation or no trace.
func DumpViolationPrefix(res *MeshResult, path string) (*monitor.Violation, error) {
	first := monitor.FirstViolation(res.Verdicts)
	if first == nil {
		return nil, fmt.Errorf("exp: run has no violation to dump")
	}
	if res.Trace == nil {
		return nil, fmt.Errorf("exp: run has no trace to dump")
	}
	prefix := monitor.ViolationPrefix(res.Trace, first)
	if err := trace.WriteFile(path, prefix); err != nil {
		return nil, err
	}
	return first, nil
}

// ReplayViolationDump reads a dumped violation prefix and re-evaluates
// the spec's monitors over it offline. The returned verdicts must
// contain the dumped violation (the containment contract: truncation
// may additionally flush other components' obligations cut mid-flight,
// so the dumped violation need not be the canonically first on
// replay), and repeated calls are deterministic — both asserted by the
// E16 round-trip test and the CI monitor job.
func ReplayViolationDump(path string, spec scenario.Spec) ([]monitor.Verdict, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if norm.Monitors == nil {
		return nil, fmt.Errorf("exp: spec has no monitors block to replay against")
	}
	t, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return monitor.Evaluate(t, norm.Monitors.Build()...), nil
}

// ContainsViolation reports whether the verdicts include the given
// violation — the containment check of the dump/replay round trip.
// Matching is by identity of the anchor (monitor, time, component,
// seq); the detail may differ when replay truncation converts a
// deadline-exceeded violation into an unresolved-at-end one.
func ContainsViolation(verdicts []monitor.Verdict, v *monitor.Violation) bool {
	for i := range verdicts {
		for j := range verdicts[i].Samples {
			s := &verdicts[i].Samples[j]
			if s.Monitor == v.Monitor && s.Time == v.Time &&
				s.Component == v.Component && s.Seq == v.Seq {
				return true
			}
		}
	}
	return false
}
