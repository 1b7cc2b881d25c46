package exp

import (
	"strings"
	"testing"

	"repro/internal/apd"
	"repro/internal/logical"
	"repro/internal/scenario"
)

// quickFaultMeshConfig shrinks the E11 mesh for test time while keeping
// every fault class active: drops, loss window, jitter, partition
// window, crash and restart.
func quickFaultMeshConfig(n int) scenario.Spec {
	cfg := DefaultFaultMeshConfig(n)
	cfg.Rounds = 12
	cfg.NoiseEvents = 60
	// The quick run spans ~45ms of simulated time; compress the default
	// schedule so the outage, the restart and the partition window all
	// overlap live traffic.
	ms := func(v int64) logical.Time { return logical.Time(v) * logical.Time(logical.Millisecond) }
	cfg.Crash = &scenario.CrashPlan{Platform: 1, At: ms(12), RestartAt: ms(22), RebornRounds: 4}
	cfg.Faults.Partitions[0].From = ms(30)
	cfg.Faults.Partitions[0].To = ms(38)
	return cfg
}

// The E11 acceptance gate, part 1: byte-identical canonical reports
// and traces across ≥3 seeds (the fault plan consumes the seed) × ≥3
// partition counts with a nonzero-drop fault plan, a partition window
// and a crash/restart on a federated Cluster; and the plan must be
// demonstrably active (observable errors in every reference run).
func TestFaultMeshCrossModeDeterminismProperty(t *testing.T) {
	refs, err := CheckDeterminism(FaultGateSpecs(quickFaultMeshConfig(8), 21, 3), []int{2, 3, 4, 8}, nil, RequireFaultErrors)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("got %d reference runs", len(refs))
	}
}

// The E11 acceptance gate, part 2: the faulted federated run must not
// depend on the Go scheduler — identical reports under different
// GOMAXPROCS values.
func TestFaultMeshDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := quickFaultMeshConfig(6)
	cfg.Seed = 9
	if _, err := CheckDeterminism([]scenario.Spec{cfg}, []int{3}, []int{1, 8}, nil); err != nil {
		t.Fatal(err)
	}
}

// Recovery must be visible in the report: peers observe failures during
// the outage (never silently), and the restarted platform serves and
// calls again — strictly more than it would without the restart.
func TestFaultMeshCrashRecovery(t *testing.T) {
	cfg := quickFaultMeshConfig(6)
	// Isolate the crash: no drops or windows, so every error in the
	// report is attributable to the outage.
	cfg.Faults = nil
	res, err := RunMesh(3, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	crashed := cfg.Crash.Platform
	row := res.Rows[crashed]
	if row.Served == 0 {
		t.Fatal("crashed platform never served")
	}
	// Peers calling into the outage must see observable failures.
	peerErrs := 0
	for i, r := range res.Rows {
		if i != crashed {
			peerErrs += r.Errors
		}
	}
	if peerErrs == 0 {
		t.Fatal("outage invisible to peers: no observable call failures")
	}

	// Against a permanent outage, the restart must add served calls on
	// the crashed platform and successful calls by its reborn client.
	noRestart := cfg
	crash := *cfg.Crash
	crash.RestartAt = 0
	noRestart.Crash = &crash
	down, err := RunMesh(3, noRestart, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Served <= down.Rows[crashed].Served {
		t.Fatalf("restart added no served calls: %d with restart, %d without",
			row.Served, down.Rows[crashed].Served)
	}
	if row.Calls <= down.Rows[crashed].Calls {
		t.Fatalf("reborn client completed no calls: %d with restart, %d without",
			row.Calls, down.Rows[crashed].Calls)
	}
}

// The pipeline contrast: the stock pipeline computes on corrupt input
// pairs under the fault schedule (silent corruption), the DEAR pipeline
// never does — its failures are all counted, observable errors — and it
// still makes progress.
func TestFaultPipelineBaselineSilentDearObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulated pipeline runs")
	}
	for _, seed := range []uint64{1, 2} {
		res, err := RunFaultPipeline(seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		if res.Baseline.CorruptProcessed == 0 {
			t.Fatalf("seed %d: baseline processed no corrupt activations — fault plan too benign", seed)
		}
		if res.Dear.CorruptProcessed != 0 {
			t.Fatalf("seed %d: DEAR processed %d corrupt activations", seed, res.Dear.CorruptProcessed)
		}
		if res.Dear.TotalErrors() == 0 {
			t.Fatalf("seed %d: DEAR observed no errors under faults", seed)
		}
		if res.Dear.FramesProcessed == 0 {
			t.Fatalf("seed %d: DEAR made no progress under faults", seed)
		}
	}
}

// DefaultPipelineFaultPlan places its windows from the baseline's
// period and settle time, yet one plan serves both variants
// (RunFaultPipeline). Both DEAR configs must share that timing, or the
// windows would land elsewhere in the DEAR runs.
func TestPipelineConfigsShareTiming(t *testing.T) {
	const frames = 400
	base := apd.DefaultBaselineConfig(frames)
	for name, cfg := range map[string]apd.DeterministicConfig{
		"default": apd.DefaultDeterministicConfig(frames),
		"split":   apd.SplitDeterministicConfig(frames),
	} {
		if cfg.Period != base.Period || cfg.SettleTime != base.SettleTime {
			t.Errorf("%s DEAR config: period %v, settle %v; baseline has %v, %v",
				name, cfg.Period, cfg.SettleTime, base.Period, base.SettleTime)
		}
	}
}

// RunFaults is the E11 entry point used by cmd/experiments: its
// self-checks must pass and the mesh report must be non-trivial.
func TestRunFaultsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulated pipeline runs")
	}
	res, err := RunFaults(1, 400, quickFaultMeshConfig(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Mesh.Report(), "E10 mesh") {
		t.Fatalf("unexpected mesh report:\n%s", res.Mesh.Report())
	}
}

// The fault-free path must be untouched: a mesh config without faults
// still produces a report with zero errors (E10 semantics preserved).
func TestMeshWithoutFaultsHasNoErrors(t *testing.T) {
	res, err := RunMesh(1, quickMeshConfig(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if row.Errors != 0 {
			t.Fatalf("platform %d: %d errors in fault-free run", i, row.Errors)
		}
	}
}
