package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// quickTraceConfig shrinks the mesh for trace tests while keeping a
// multi-platform workload with cross-platform calls.
func quickTraceConfig() scenario.Spec {
	cfg := DefaultMeshConfig(6)
	cfg.Rounds = 4
	cfg.NoiseEvents = 40
	return cfg
}

// The tentpole property the recorder is built around: the merged
// federated trace is byte-identical to the single-kernel trace across
// partition counts {2, 4} × GOMAXPROCS {1, 2, 8}, for the ring mesh and
// the random-regular mesh at two seeds (three distinct behaviours) —
// and no trace may be empty or truncated.
func TestTraceModeIndependenceProperty(t *testing.T) {
	ring := quickTraceConfig()
	ring.Seed = 7
	rr := ring
	rr.Topology = scenario.RandomRegular
	rr8 := rr
	rr8.Seed = 8
	check := func(res *MeshResult) error {
		if res.Trace == nil || res.Trace.Len() == 0 {
			return fmt.Errorf("empty trace")
		}
		if res.Trace.Truncated != 0 {
			return fmt.Errorf("trace truncated (%d dropped) — capacity estimate too small", res.Trace.Truncated)
		}
		return nil
	}
	if _, err := CheckDeterminism([]scenario.Spec{ring, rr, rr8}, []int{2, 4}, []int{1, 2, 8}, check); err != nil {
		t.Fatal(err)
	}
}

// traceCapacityPartition's estimate must hold every shape's whole
// stream: the mesh preset, the ring and full topologies (the full
// shape's clients call every peer, so an estimate from Degree alone
// would overflow at 16 platforms) and the E11 crash plan (a reborn
// client records past its platform's rounds), each at 1, 2 and 4
// partitions, run with no record evicted. RunScenario fails on a
// truncated trace; the explicit check keeps the pin if that changes.
func TestTraceCapacityHoldsEveryPreset(t *testing.T) {
	specs := map[string]scenario.Spec{
		"mesh":  DefaultMeshConfig(8),
		"ring":  scenario.TopologyPreset(scenario.Ring, 8),
		"full":  scenario.TopologyPreset(scenario.Full, 16),
		"crash": DefaultFaultMeshConfig(8),
	}
	for _, name := range []string{"mesh", "ring", "full", "crash"} {
		for _, parts := range []int{1, 2, 4} {
			spec := specs[name]
			spec.Seed = 5
			spec.Partitions = parts
			res, err := RunScenario(spec)
			if err != nil {
				t.Fatalf("%s at %d partitions: %v", name, parts, err)
			}
			if res.Trace.Truncated != 0 || res.Trace.Len() == 0 {
				t.Fatalf("%s at %d partitions: %d records, %d truncated", name, parts, res.Trace.Len(), res.Trace.Truncated)
			}
		}
	}
}

// A run whose trace rings overflow must fail rather than hand a gate
// an incomplete trace, and the error names the partition and its ring
// capacity.
func TestRunScenarioRejectsTruncatedTrace(t *testing.T) {
	restore := scenario.ShrinkTraceRingsForTesting(16)
	defer restore()
	spec := quickTraceConfig()
	spec.Partitions = 2
	res, err := RunScenario(spec)
	if err == nil {
		t.Fatalf("truncated run succeeded with %d records, %d truncated", res.Trace.Len(), res.Trace.Truncated)
	}
	if msg := err.Error(); !strings.Contains(msg, "partition 0 of 2") || !strings.Contains(msg, "capacity estimate of 16 records") {
		t.Fatalf("overflow error %q does not name the partition and its capacity", msg)
	}
}

// The E13 divergence-diagnosis gate: two same-seed runs never
// diverge, while a perturbed-seed pair yields a concrete (time,
// component, kind) triple. The perturbed pair runs the random-regular
// topology, where the seed shapes the call graph (the ring preset's
// behaviour is deliberately seed-invariant: fixed latency, zero
// dispatch jitter).
func TestTraceFirstDivergenceOnMeshRuns(t *testing.T) {
	cfg := quickTraceConfig()
	a, err := RunMesh(11, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMesh(11, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.FirstDivergence(a.Trace, b.Trace); d != nil {
		t.Fatalf("same-seed runs diverged: %s", d)
	}

	rr := cfg
	rr.Topology = scenario.RandomRegular
	x, err := RunMesh(11, rr, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := RunMesh(12, rr, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := trace.FirstDivergence(x.Trace, y.Trace)
	if d == nil {
		t.Fatal("perturbed-seed runs produced identical traces — the trace carries no behaviour")
	}
	if d.Component() == "" || d.Kind() == "" {
		t.Fatalf("divergence lacks a concrete (time, component, kind) triple: %s", d)
	}
	t.Logf("perturbed-seed divergence: t=%v component=%s kind=%s", d.Time(), d.Component(), d.Kind())
}
