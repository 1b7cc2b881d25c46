package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// --- Experiment E12: topology sweep over the scenario engine ---
//
// E10 and E11 exercise one deployment shape (the ring mesh). The
// scenario engine makes deployment shape a declarative input, so E12
// sweeps the same client/server workload across every topology
// generator (star, ring, tree, random-regular) × partition count, and
// its gate list (TopologyGateSpecs) extends the federated-vs-single
// byte-equality gate to each: the determinism claim is checked per
// *shape*, not just per scale.

// TopologySweepConfig parameterizes E12.
type TopologySweepConfig struct {
	// Platforms is N, the platform count each shape is generated for.
	Platforms int
	// Rounds is the per-client call-round count.
	Rounds int
	// NoiseEvents drives each platform's local load generator.
	NoiseEvents int
	// PartitionCounts are the execution modes swept per shape; 1 is the
	// single-kernel reference.
	PartitionCounts []int
}

// DefaultTopologySweepConfig returns the E12 scale: 12 platforms per
// shape, the E10 workload mix, partition counts {1, 2, 4}.
func DefaultTopologySweepConfig() TopologySweepConfig {
	return TopologySweepConfig{
		Platforms:       12,
		Rounds:          12,
		NoiseEvents:     400,
		PartitionCounts: []int{1, 2, 4},
	}
}

// topoSpec builds the E12 spec for one shape.
func (c TopologySweepConfig) topoSpec(shape scenario.Shape) scenario.Spec {
	spec := scenario.TopologyPreset(shape, c.Platforms)
	spec.Rounds = c.Rounds
	spec.NoiseEvents = c.NoiseEvents
	return spec
}

// TopologySweepEntry is one (shape, partition count) cell of E12.
type TopologySweepEntry struct {
	// Shape is the topology generator the cell ran.
	Shape scenario.Shape
	// Partitions is the executed partition count.
	Partitions int
	// Calls/Served/Errors aggregate the canonical per-platform rows.
	Calls int
	// Served counts compute invocations across all platforms.
	Served int
	// Errors counts observable call failures across all platforms.
	Errors int
	// CoordRounds is the federation's coordination-round count
	// (mode-dependent diagnostic; zero on a single kernel).
	CoordRounds uint64
	// EventsFired counts kernel events (mode-dependent diagnostic).
	EventsFired uint64
}

// TopologySweepResult is the full E12 sweep.
type TopologySweepResult struct {
	// Config is the sweep configuration.
	Config TopologySweepConfig
	// Seed is the world seed every cell used.
	Seed uint64
	// Entries holds one cell per shape × partition count, in sweep
	// order.
	Entries []TopologySweepEntry
}

// Table renders the sweep.
func (r *TopologySweepResult) Table() *metrics.Table {
	t := metrics.NewTable("topology", "partitions", "calls", "served", "errors", "events", "sync rounds")
	for _, e := range r.Entries {
		t.Row(string(e.Shape), e.Partitions, e.Calls, e.Served, e.Errors, e.EventsFired, e.CoordRounds)
	}
	return t
}

// RunTopologySweep executes E12 once: every topology shape at every
// partition count, one measured cell each. It only measures; the E12
// determinism gate is CheckDeterminism over TopologyGateSpecs.
func RunTopologySweep(seed uint64, cfg TopologySweepConfig) (*TopologySweepResult, error) {
	if len(cfg.PartitionCounts) == 0 {
		cfg.PartitionCounts = []int{1, 2, 4}
	}
	res := &TopologySweepResult{Config: cfg, Seed: seed}
	for _, shape := range scenario.Shapes {
		spec := cfg.topoSpec(shape)
		for _, parts := range cfg.PartitionCounts {
			run, err := RunMesh(seed, spec, parts)
			if err != nil {
				return nil, fmt.Errorf("exp: topo %s × %d partitions: %w", shape, parts, err)
			}
			e := TopologySweepEntry{
				Shape:       shape,
				Partitions:  run.Partitions,
				CoordRounds: run.CoordRounds,
				EventsFired: run.EventsFired,
			}
			for _, row := range run.Rows {
				e.Calls += row.Calls
				e.Served += row.Served
				e.Errors += row.Errors
			}
			res.Entries = append(res.Entries, e)
		}
	}
	return res, nil
}

// TopologyGateSpecs is the E12 gate list: every shape at seedBase, then
// the random-regular shape at seedBase+1 .. seedBase+seeds-1. Only the
// random-regular generator consumes the seed (its call graph is a
// seeded draw), so star, ring and tree differ by shape alone. Gate it
// with RequireTraffic.
func TopologyGateSpecs(cfg TopologySweepConfig, seedBase uint64, seeds int) []scenario.Spec {
	var specs []scenario.Spec
	for _, shape := range scenario.Shapes {
		spec := cfg.topoSpec(shape)
		spec.Seed = seedBase
		specs = append(specs, spec)
	}
	for i := 1; i < seeds; i++ {
		spec := cfg.topoSpec(scenario.RandomRegular)
		spec.Seed = seedBase + uint64(i)
		specs = append(specs, spec)
	}
	return specs
}
