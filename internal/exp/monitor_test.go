package exp

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// A healthy E16 run must be clean AND non-vacuous: zero violations,
// but every standard monitor checked at least one real obligation —
// a monitor that never checks anything would pass every gate.
func TestMonitoredSpecHealthyAndNonVacuous(t *testing.T) {
	res, err := RunScenario(MonitoredSpec(MonitorConfig{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorViolations != 0 {
		t.Fatalf("healthy monitored run tripped %d violations:\n%s",
			res.MonitorViolations, res.VerdictReport())
	}
	if res.MonitorChecks == 0 {
		t.Fatal("monitored run checked no obligations")
	}
	if len(res.Verdicts) != 3 {
		t.Fatalf("expected the 3 standard monitors, got %d:\n%s", len(res.Verdicts), res.VerdictReport())
	}
	for _, v := range res.Verdicts {
		if v.Checked == 0 {
			t.Errorf("monitor %s checked nothing — its gate is vacuous", v.Monitor)
		}
	}
}

// E16's headline gate: merged monitor verdicts are byte-identical
// across single-kernel and federated execution at every partition
// count, for several mesh sizes — whose verdicts must differ (the
// gate's non-vacuity check) — with every monitor checking something.
func TestMonitorVerdictDeterminism(t *testing.T) {
	specs, parts := 3, []int{1, 2, 4}
	if testing.Short() {
		specs, parts = 2, []int{1, 2}
	}
	gate := MonitorGateSpecs(MonitorConfig{Seed: 1}, specs)
	if testing.Short() {
		for i := range gate {
			gate[i].Rounds = 6
		}
	}
	refs, err := CheckDeterminism(gate, parts, nil, RequireMonitorChecks)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != specs {
		t.Fatalf("got %d reference runs for %d specs", len(refs), specs)
	}
	for i, ref := range refs {
		if rep := ref.VerdictReport(); !strings.Contains(rep, "monitor no-silent-corruption") {
			t.Fatalf("spec %d carries no verdicts:\n%s", i, rep)
		}
	}
}

// The gate above leaves GOMAXPROCS to the ambient test setting; this
// test pins it explicitly across {1, 2, 8}.
func TestMonitorVerdictsAcrossProcs(t *testing.T) {
	procs := []int{1, 2, 8}
	if testing.Short() {
		procs = []int{1, 8}
	}
	spec := MonitoredSpec(MonitorConfig{Seed: 3})
	spec.Rounds = 6
	if _, err := CheckDeterminism([]scenario.Spec{spec}, []int{2, 4}, procs, nil); err != nil {
		t.Fatal(err)
	}
}

// Violated runs must be deterministic too: a broken spec's verdicts —
// violation counts, hash, samples — are as mode-independent as a
// clean run's.
func TestBrokenSpecVerdictsDeterministic(t *testing.T) {
	if _, err := CheckDeterminism([]scenario.Spec{BrokenMonitoredSpec(2)}, []int{2, 4}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// The broken spec must actually trip responded-within: calls expiring
// into the platform-1 outage resolve observably but later than the
// tightened deadline. This is the non-vacuity proof for the E16
// violation machinery — no test hook involved.
func TestBrokenSpecTripsRespondedWithin(t *testing.T) {
	res, err := RunScenario(BrokenMonitoredSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	tripped := false
	for _, v := range res.Verdicts {
		switch {
		case strings.HasPrefix(v.Monitor, "responded-within"):
			if v.Violations == 0 {
				t.Fatalf("broken spec did not trip responded-within:\n%s", res.VerdictReport())
			}
			if len(v.Samples) == 0 || v.Samples[0].Seq == 0 {
				t.Fatalf("violation carries no anchoring record: %+v", v.Samples)
			}
			tripped = true
		default:
			if v.Violations != 0 {
				t.Errorf("broken spec tripped unrelated monitor %s:\n%s", v.Monitor, res.VerdictReport())
			}
		}
	}
	if !tripped {
		t.Fatalf("no responded-within verdict in:\n%s", res.VerdictReport())
	}
}

// no-silent-corruption must trip the moment a server computes a wrong
// answer. Real runs cannot corrupt (the handler is pure), so the trip
// path is exercised through the test-only corruption hook — the
// monitor itself is production code observing a production trace
// point.
func TestCorruptionMonitorTrips(t *testing.T) {
	restore := scenario.EnableCorruptionForTesting()
	defer restore()
	spec := MonitoredSpec(MonitorConfig{Seed: 1})
	spec.Rounds = 2
	res, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Verdicts {
		if v.Monitor == "no-silent-corruption" {
			if v.Violations == 0 {
				t.Fatalf("corrupted run not flagged:\n%s", res.VerdictReport())
			}
			return
		}
	}
	t.Fatalf("no no-silent-corruption verdict in:\n%s", res.VerdictReport())
}

// The violation-repro round trip: a violated run dumps the canonical
// trace prefix up to its first violation's anchor; replaying the dump
// offline must (a) contain that violation and (b) be deterministic
// across evaluations. This is what makes a monitor verdict a *repro*,
// not just an alarm.
func TestViolationDumpReplayRoundTrip(t *testing.T) {
	spec := BrokenMonitoredSpec(1)
	res, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorViolations == 0 {
		t.Fatalf("broken spec tripped nothing:\n%s", res.VerdictReport())
	}

	path := filepath.Join(t.TempDir(), "violation.trace")
	first, err := DumpViolationPrefix(res, path)
	if err != nil {
		t.Fatal(err)
	}

	replayed, err := ReplayViolationDump(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ContainsViolation(replayed, first) {
		t.Fatalf("replayed prefix lost the dumped violation %s:\n%s",
			first.String(), monitor.Report(replayed))
	}
	again, err := ReplayViolationDump(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if monitor.Report(again) != monitor.Report(replayed) {
		t.Fatal("violation replay is not deterministic")
	}
}

// Dumping a clean run must refuse loudly rather than write an empty
// artifact.
func TestDumpViolationPrefixRefusesCleanRun(t *testing.T) {
	spec := MonitoredSpec(MonitorConfig{Seed: 1})
	spec.Rounds = 2
	res, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DumpViolationPrefix(res, filepath.Join(t.TempDir(), "none.trace")); err == nil {
		t.Fatal("dumping a violation-free run did not fail")
	}
}

// monitorLoopback is RecordLoopback with an online monitor engine
// tapped onto the live record stream (Recorder.SetTap): the engine
// observes every endpoint event of the physical UDP run as it is
// appended — the same engine, unchanged, that watches simulated
// kernels — and its finished verdicts ride back with the trace. The
// service-turnaround monitor is the live-mode twin of
// responded-within: every captured request (KindRecv) must be answered
// by a response (KindSend) within the deadline, with deadlines in
// wall-derived logical time.
func monitorLoopback(n int, timeout time.Duration, turnaround logical.Duration) ([]monitor.Verdict, *trace.Trace, *LoopbackResult, error) {
	eng := monitor.NewEngine(
		monitor.NoSilentCorruption(),
		monitor.MatchedWithin(
			fmt.Sprintf("served-within(%dns)", int64(turnaround)),
			trace.KindRecv, []string{trace.KindSend}, turnaround),
	)
	rec, live, err := recordLoopback(n, timeout, eng)
	if err != nil {
		return nil, nil, nil, err
	}
	eng.Finish()
	return eng.Verdicts(), rec, live, nil
}

// The same engine watches live runs: monitorLoopback taps a monitor
// onto the recorder of a real-UDP E9/E13 loopback and its verdicts
// must come back clean with every round trip checked. Wall-clock
// dependent, so skipped in -short.
func TestMonitorLoopbackLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP run in -short mode")
	}
	const n = 8
	verdicts, rec, live, err := monitorLoopback(n, 0, 10*logical.Second)
	if err != nil {
		t.Fatal(err)
	}
	if live.Completed != n {
		t.Fatalf("completed %d/%d round trips", live.Completed, n)
	}
	if rec.Len() == 0 {
		t.Fatal("live run recorded no trace")
	}
	served := false
	for _, v := range verdicts {
		if v.Violations != 0 {
			t.Errorf("live monitor %s tripped:\n%s", v.Monitor, monitor.Report(verdicts))
		}
		if strings.HasPrefix(v.Monitor, "served-within") {
			served = true
			if v.Checked != n {
				t.Errorf("served-within checked %d obligations, want %d", v.Checked, n)
			}
		}
	}
	if !served {
		t.Fatalf("no served-within verdict in:\n%s", monitor.Report(verdicts))
	}
}
