package exp

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// CheckDeterminism is the one determinism gate: E10, E11, E12, E14
// and E16 are spec lists run through it, and the scheduler-independence
// tests pass their GOMAXPROCS values as procs. It works in three steps:
//
//  1. every spec runs through CompareSpecModes — the single-kernel
//     reference against every partition count × GOMAXPROCS value,
//     comparing canonical reports, canonical traces and verdicts; a
//     violation fails the gate, rendered by ModeDivergence;
//  2. check (nil = none) is applied to every reference run — the gate's
//     own requirements, such as RequireFaultErrors;
//  3. the specs' behaviour must be pairwise distinct. A list whose specs
//     behave identically re-runs one world N times, so its cross-spec
//     claim proves nothing. Behaviour is the canonical report without
//     its header line (which names the seed even when nothing consumes
//     it) plus the verdict report.
//
// It returns the single-kernel reference results in spec order.
func CheckDeterminism(specs []scenario.Spec, partitionCounts, procs []int, check func(*MeshResult) error) ([]*MeshResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exp: determinism gate has no specs")
	}
	refs := make([]*MeshResult, len(specs))
	seen := make(map[string]int, len(specs))
	for i, spec := range specs {
		ref, div, err := CompareSpecModes(spec, partitionCounts, procs)
		if err == nil && div != nil {
			err = fmt.Errorf("determinism gate failed:\n%s", div)
		}
		if err == nil && check != nil {
			err = check(ref)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: gate spec %d (seed %d): %w", i, spec.Seed, err)
		}
		rep := ref.Report()
		behaviour := rep[strings.IndexByte(rep, '\n')+1:] + ref.VerdictReport()
		if j, dup := seen[behaviour]; dup {
			return nil, fmt.Errorf("exp: gate specs %d and %d behave identically — the gate is vacuous", j, i)
		}
		seen[behaviour] = i
		refs[i] = ref
	}
	return refs, nil
}

// RequireTraffic is the gate check for fault-free workloads (E10, E12,
// E14): the reference run must have made calls and served them.
func RequireTraffic(r *MeshResult) error {
	calls, served := 0, 0
	for _, row := range r.Rows {
		calls += row.Calls
		served += row.Served
	}
	if calls == 0 || served == 0 {
		return fmt.Errorf("idle workload (calls=%d served=%d)", calls, served)
	}
	return nil
}

// RequireFaultErrors is the E11 gate check: the spec carries a fault
// plan with a nonzero drop rate, and the plan has teeth — the run
// records observable errors and still completes calls.
func RequireFaultErrors(r *MeshResult) error {
	if f := r.Config.Faults; f == nil || f.DropRate == 0 {
		return fmt.Errorf("E11 gate requires a fault plan with nonzero drop rate")
	}
	errs := 0
	for _, row := range r.Rows {
		errs += row.Errors
	}
	if errs == 0 {
		return fmt.Errorf("no observable errors under faults — the fault plan is vacuous:\n%s", r.Report())
	}
	return RequireTraffic(r)
}

// RequireMonitorChecks is the E16 gate check: every monitor of the run
// examined at least one obligation. A monitor that checks nothing would
// pass every verdict comparison.
func RequireMonitorChecks(r *MeshResult) error {
	if r.MonitorChecks == 0 {
		return fmt.Errorf("E16 run checked no obligations — the gate is vacuous")
	}
	for i := range r.Verdicts {
		if r.Verdicts[i].Checked == 0 {
			return fmt.Errorf("E16 monitor %s checked nothing — the gate is vacuous", r.Verdicts[i].Monitor)
		}
	}
	return nil
}

// ModeDivergence describes one determinism-contract violation found by
// CompareSpecModes: which execution mode disagreed with the
// single-kernel reference, both canonical reports, and — when the
// logical event traces disagree too — the first divergent event.
type ModeDivergence struct {
	// Partitions is the federated partition count that diverged.
	Partitions int
	// Procs is the GOMAXPROCS value the diverging run executed under
	// (0 = the ambient setting was left untouched).
	Procs int
	// RefReport is the single-kernel reference report.
	RefReport string
	// Report is the diverging run's report. Equal to RefReport when the
	// divergence is trace-only.
	Report string
	// Div localizes the divergence to the first disagreeing trace event;
	// nil when the traces agree (the divergence then lies outside the
	// traced event set).
	Div *trace.Divergence
}

// String renders the violation for gate failures and repro reports:
// the mode, the first divergent event when localized, and both reports
// when they differ.
func (m *ModeDivergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "federated run (%d partitions, GOMAXPROCS=%d) diverged from single-kernel reference\n",
		m.Partitions, m.Procs)
	if m.Div != nil {
		fmt.Fprintf(&b, "first divergent event: t=%v component=%s kind=%s (%s)\n",
			m.Div.Time(), m.Div.Component(), m.Div.Kind(), m.Div)
	} else {
		b.WriteString("traces agree — divergence is outside the traced event set\n")
	}
	if m.Report != m.RefReport {
		fmt.Fprintf(&b, "--- single kernel ---\n%s--- federated ---\n%s", m.RefReport, m.Report)
	} else {
		b.WriteString("canonical reports agree — divergence is trace-only\n")
	}
	return b.String()
}

// CompareSpecModes is the run-one-spec-both-modes primitive behind
// CheckDeterminism, the determinism fuzzer and the -scenario CLI gate:
// it runs the spec once on a single kernel
// (the reference) and then federated at every requested partition
// count × GOMAXPROCS value, requiring byte-identical canonical reports
// AND byte-identical canonical traces — and, for specs with a monitors
// block, byte-identical monitor verdict reports (the merged verdicts
// must match the single-kernel engine's exactly, which is how fuzzed
// monitor-bearing specs keep monitor determinism fuzz-checked). It
// returns the single-kernel reference result and the first violation
// (nil when every mode agrees); the error return is reserved for specs
// that fail to compile or run.
//
// partitionCounts defaults to {2, 4}; entries ≤ 1 and counts that
// collapse to an already-run effective partition count (the compiler
// caps partitions at the platform count) are skipped. procs defaults
// to {0}, meaning GOMAXPROCS is left untouched; positive entries pin
// it for the federated run and restore the previous value afterwards.
func CompareSpecModes(spec scenario.Spec, partitionCounts, procs []int) (*MeshResult, *ModeDivergence, error) {
	if len(partitionCounts) == 0 {
		partitionCounts = []int{2, 4}
	}
	if len(procs) == 0 {
		procs = []int{0}
	}
	norm, err := spec.Normalized()
	if err != nil {
		return nil, nil, err
	}
	norm.Partitions = 1
	ref, err := RunScenario(norm)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: single-kernel reference: %w", err)
	}
	// The compared string is the canonical report plus the verdict
	// report (empty for monitor-free specs) — one byte-equality check
	// covers both contracts without perturbing monitor-free bytes.
	refReport := ref.Report() + ref.VerdictReport()
	seen := map[int]bool{1: true}
	for _, p := range partitionCounts {
		eff := p
		if eff > norm.Platforms {
			eff = norm.Platforms
		}
		if eff <= 1 || seen[eff] {
			continue
		}
		seen[eff] = true
		fed := norm
		fed.Partitions = eff
		for _, gp := range procs {
			restore := pinProcs(gp)
			res, err := RunScenario(fed)
			restore()
			if err != nil {
				return nil, nil, fmt.Errorf("exp: federated run (%d partitions): %w", eff, err)
			}
			md := &ModeDivergence{
				Partitions: res.Partitions,
				Procs:      gp,
				RefReport:  refReport,
				Report:     res.Report() + res.VerdictReport(),
			}
			if ref.Trace != nil && res.Trace != nil {
				md.Div = trace.FirstDivergence(ref.Trace, res.Trace)
			}
			if md.Report != md.RefReport || md.Div != nil {
				return ref, md, nil
			}
		}
	}
	return ref, nil, nil
}

// pinProcs sets GOMAXPROCS for one run and returns the restore func;
// n ≤ 0 is a no-op (ambient setting kept).
func pinProcs(n int) (restore func()) {
	if n <= 0 {
		return func() {}
	}
	old := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(old) }
}
