package exp

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// A gate that has never failed proves nothing: with deliberate
// nondeterminism planted (a map-iteration-order draw mixed into every
// compute response), the E10 gate list must fail, and the failure must
// name the first divergent event as a (time, component, kind) triple.
func TestGateCatchesInjectedNondeterminism(t *testing.T) {
	cfg := quickMeshConfig(6)
	cfg.Seed = 1
	specs := MeshGateSpecs(cfg)
	restore := scenario.EnableChaosForTesting()
	_, err := CheckDeterminism(specs, []int{2, 3, 6}, nil, RequireTraffic)
	restore()
	if err == nil {
		t.Fatal("E10 gate passed with injected nondeterminism")
	}
	m := regexp.MustCompile(`first divergent event: t=(\S+) component=(\S+) kind=(\S+)`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("gate error does not name the first divergent event:\n%v", err)
	}
	t.Logf("first divergent event: t=%s component=%s kind=%s", m[1], m[2], m[3])

	// The same list passes once the fault is removed.
	if _, err := CheckDeterminism(specs, []int{2, 3, 6}, nil, RequireTraffic); err != nil {
		t.Fatal(err)
	}
}

// The non-vacuity check must be able to fail. The mesh preset consumes
// no seed, so seeds 1 and 2 run one behaviour twice; their reports
// differ only in the header line that names the seed. A seed-only list
// is rejected, and so is a fault-free run under the E11 check.
func TestGateRejectsVacuousList(t *testing.T) {
	a := quickMeshConfig(6)
	a.Seed = 1
	b := a
	b.Seed = 2
	_, err := CheckDeterminism([]scenario.Spec{a, b}, []int{2, 3, 6}, nil, RequireTraffic)
	if err == nil || !strings.Contains(err.Error(), "vacuous") {
		t.Fatalf("seed-only mesh list accepted: %v", err)
	}
	if _, err := CheckDeterminism([]scenario.Spec{a}, []int{2}, nil, RequireFaultErrors); err == nil {
		t.Fatal("fault-free run passed the E11 check")
	}
	if _, err := CheckDeterminism(nil, nil, nil, nil); err == nil {
		t.Fatal("empty spec list accepted")
	}
}
