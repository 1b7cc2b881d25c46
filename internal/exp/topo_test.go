package exp

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// quickTopoConfig shrinks E12 for test time while keeping every shape
// and the federated partition counts of the acceptance gate.
func quickTopoConfig() TopologySweepConfig {
	return TopologySweepConfig{
		Platforms:       6,
		Rounds:          4,
		NoiseEvents:     40,
		PartitionCounts: []int{1, 2, 4},
	}
}

// The E12 acceptance gate, part 1: for every topology shape in
// {star, ring, tree, random-regular} × partition counts {1, 2, 4},
// federated and single-kernel runs produce byte-identical canonical
// reports and traces, with random-regular (the one shape whose call
// graph the seed draws) across 3 seeds. Every spec must behave
// differently — shapes that compiled to the same world would collapse
// the sweep to E10, and the gate's non-vacuity check rejects that.
func TestTopologySweepCrossModeDeterminism(t *testing.T) {
	cfg := quickTopoConfig()
	refs, err := CheckDeterminism(TopologyGateSpecs(cfg, 31, 3), cfg.PartitionCounts, nil, RequireTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(scenario.Shapes) + 2; len(refs) != want {
		t.Fatalf("got %d reference runs, want %d", len(refs), want)
	}
	for i, shape := range scenario.Shapes {
		if rep := refs[i].Report(); !strings.Contains(rep, "topology="+string(shape)) {
			t.Fatalf("%s report does not name its shape:\n%s", shape, rep)
		}
	}
}

// The E12 acceptance gate, part 2: the sweep must not depend on the Go
// scheduler — identical reports under different GOMAXPROCS values.
func TestTopologySweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if _, err := CheckDeterminism(TopologyGateSpecs(quickTopoConfig(), 5, 1), []int{4}, []int{1, 8}, nil); err != nil {
		t.Fatal(err)
	}
}

// The sweep's workload sanity: every cell carries traffic and the
// table renders.
func TestTopologySweepShape(t *testing.T) {
	res, err := RunTopologySweep(1, quickTopoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(scenario.Shapes) * 3; len(res.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(res.Entries), want)
	}
	for _, e := range res.Entries {
		if e.Calls == 0 || e.Served == 0 {
			t.Fatalf("idle cell: %+v", e)
		}
		if e.Errors != 0 {
			t.Fatalf("fault-free sweep recorded errors: %+v", e)
		}
		if e.Partitions > 1 && e.CoordRounds == 0 {
			t.Fatalf("federated cell reported zero coordination rounds: %+v", e)
		}
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

// A JSON-shaped spec run through the generic scenario runner must hit
// the same byte-equality property as the presets (this is the path
// cmd/experiments -scenario exercises).
func TestRunScenarioFederatedMatchesSingle(t *testing.T) {
	spec := scenario.TopologyPreset(scenario.Tree, 7)
	spec.Seed = 13
	spec.Rounds = 4
	spec.NoiseEvents = 30
	spec.Partitions = 3
	fed, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Partitions != 3 {
		t.Fatalf("partitions = %d", fed.Partitions)
	}
	if _, err := CheckDeterminism([]scenario.Spec{spec}, []int{fed.Partitions}, nil, nil); err != nil {
		t.Fatal(err)
	}
}
