package exp

import (
	"fmt"
	"strings"

	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// --- Experiment E10: federated N-platform client/server mesh ---
//
// The paper federates DEAR runtimes across two physical ECUs; industry
// deployments of the Adaptive Platform run far larger topologies. E10
// scales the simulated substrate to N platforms and executes the same
// scenario in two modes: on one sequential kernel (the classic
// substrate) and sharded across a des.Federation with one kernel per
// partition under conservative time synchronization. The determinism
// gate (CheckDeterminism over MeshGateSpecs) requires the two modes to
// produce byte-identical reports and traces for every spec and
// partition count — the defining property of the repo ("same seed,
// same bytes") survives sharding.
//
// Since the scenario-engine refactor the world-building lives in
// internal/scenario: E10 is the Ring preset of the declarative Spec,
// and this file is measurement code plus the E10 gate list.

// DefaultMeshConfig returns the E10 scenario for n platforms: the
// scenario engine's Ring preset.
func DefaultMeshConfig(n int) scenario.Spec { return scenario.MeshPreset(n) }

// MeshResult is the outcome of one scenario run (E10, E11 mesh, E12,
// or a JSON spec run).
type MeshResult struct {
	// Seed is the world seed the run used.
	Seed uint64
	// Config is the normalized spec the world was compiled from.
	Config scenario.Spec
	// Partitions is the executed partition count (mode, not behaviour).
	Partitions int
	// Rows are the canonical per-platform stats.
	Rows []scenario.PlatformStats
	// Trace is the canonical logical event trace of the run —
	// mode-independent like the report, and the substrate the
	// determinism gates use to name the first divergent event when
	// reports disagree.
	Trace *trace.Trace

	// Mode-dependent diagnostics (NOT part of the canonical report):
	// coordination rounds are zero for one partition, and delivered
	// counts include SD multicast whose fan-out is per-partition.
	CoordRounds uint64
	// CoordGrants counts execution windows the federation coordinator
	// dispatched across all partitions (zero for one partition).
	// Schedule-dependent, like CoordRounds.
	CoordGrants uint64
	// CoordParkedNs is cumulative wall-clock nanoseconds partitions
	// spent parked while the federation still had pending work —
	// the coordination-stall budget. Wall-clock, so never canonical.
	CoordParkedNs int64
	// EventsFired counts kernel events across all partitions.
	EventsFired uint64
	// Delivered counts delivered datagrams (mode-dependent).
	Delivered uint64
	// Dropped counts dropped datagrams (mode-dependent).
	Dropped uint64
	// CtrlSends counts multicast/topic send operations on the substrate
	// (mode-dependent).
	CtrlSends uint64
	// CtrlFanout counts datagrams fanned out through multicast/topic
	// membership lists (mode-dependent); the E14 city gate tracks its
	// growth against the platform count.
	CtrlFanout uint64

	// Verdicts are the merged monitor verdicts of a monitored run (nil
	// without a monitors block). Verdicts are mode-independent — the
	// E16 gate compares VerdictReport alongside Report — but live
	// outside the canonical Report so monitor-free gates keep their
	// historical bytes.
	Verdicts []monitor.Verdict
	// MonitorChecks totals the obligations the monitors examined —
	// the checks/op diagnostic benchmarks report.
	MonitorChecks uint64
	// MonitorViolations totals detected property breaches. A
	// violation-free monitored run has MonitorChecks > 0 and
	// MonitorViolations == 0.
	MonitorViolations uint64
}

// Report renders the canonical, mode-independent report: two runs are
// behaviourally identical iff their Reports are byte-identical. It
// deliberately excludes partition count and transport-internal
// counters. Unnamed specs (the E10/E11 presets) keep the historical
// "E10 mesh" header; named specs — E12 presets and JSON scenarios —
// identify themselves and their topology shape.
func (r *MeshResult) Report() string {
	var b strings.Builder
	if r.Config.Name == "" {
		fmt.Fprintf(&b, "E10 mesh seed=%d platforms=%d neighbors=%d rounds=%d\n",
			r.Seed, r.Config.Platforms, r.Config.Degree, r.Config.Rounds)
	} else {
		fmt.Fprintf(&b, "scenario %s topology=%s seed=%d platforms=%d degree=%d rounds=%d\n",
			r.Config.Name, r.Config.Topology, r.Seed, r.Config.Platforms, r.Config.Degree, r.Config.Rounds)
	}
	b.WriteString(scenario.StatsReport(r.Rows))
	return b.String()
}

// VerdictReport renders the merged monitor verdicts canonically (empty
// without a monitors block). Mode-independent like Report —
// CompareSpecModes compares both — but kept separate so
// monitor-free gates' golden report bytes never change.
func (r *MeshResult) VerdictReport() string {
	return monitor.Report(r.Verdicts)
}

// Table renders the per-platform breakdown for the experiment report.
func (r *MeshResult) Table() *metrics.Table {
	t := metrics.NewTable("platform", "calls", "served", "lat mean", "lat max", "resp hash")
	for i, row := range r.Rows {
		t.Row(i, row.Calls, row.Served,
			logical.Duration(row.LatMeanNs()).String(),
			logical.Duration(row.LatMaxNs).String(),
			fmt.Sprintf("%016x", row.RespHash))
	}
	return t
}

// RunScenario compiles and executes one declarative scenario spec
// (using the spec's own Seed and Partitions) and collects the
// canonical result. Every scenario-family experiment — E10, E11's
// mesh, E12 and JSON spec runs — funnels through it. A run whose
// trace rings overflowed fails with World.TraceOverflow's error, so no
// gate ever compares an incomplete trace.
func RunScenario(spec scenario.Spec) (*MeshResult, error) {
	w, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	w.Run()
	tr := w.Trace()
	if tr.Truncated != 0 {
		return nil, w.TraceOverflow()
	}
	ctrlSends, ctrlFanout := w.ControlPlane()
	verdicts := w.Verdicts()
	var checks, violations uint64
	for i := range verdicts {
		checks += verdicts[i].Checked
		violations += verdicts[i].Violations
	}
	return &MeshResult{
		Seed:          w.Spec.Seed,
		Config:        w.Spec,
		Partitions:    w.Partitions(),
		Rows:          w.Stats,
		Trace:         tr,
		CoordRounds:   w.CoordRounds(),
		CoordGrants:   w.CoordGrants(),
		CoordParkedNs: w.CoordParkedNs(),
		EventsFired:   w.EventsFired(),
		Delivered:     w.Delivered(),
		Dropped:       w.Dropped(),
		CtrlSends:     ctrlSends,
		CtrlFanout:    ctrlFanout,

		Verdicts:          verdicts,
		MonitorChecks:     checks,
		MonitorViolations: violations,
	}, nil
}

// RunMesh executes E10 (and, with the spec's Faults/Crash set, the E11
// fault scenario) once, sharding the platforms round-robin over
// partitions federated kernels (≤ 1 means one, the single-kernel run).
// For a fixed (seed, cfg) the Report is identical for every partition
// count.
func RunMesh(seed uint64, cfg scenario.Spec, partitions int) (*MeshResult, error) {
	cfg.Seed = seed
	cfg.Partitions = partitions
	return RunScenario(cfg)
}

// MeshGateSpecs is the E10 gate list: base at every ring degree from
// its own down to 1. The mesh preset consumes no seed (fixed link
// latency, no dispatch jitter, unseeded noise timing), so a seed list
// would re-run one behaviour; the degree — each client's neighbour
// count — changes every call pattern.
func MeshGateSpecs(base scenario.Spec) []scenario.Spec {
	var specs []scenario.Spec
	for d := base.Degree; d >= 1; d-- {
		s := base
		s.Degree = d
		specs = append(specs, s)
	}
	return specs
}
