package exp

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/logical"
	"repro/internal/scenario"
)

// federationScalingConfig is the E10 scaling workload: a 16-platform
// mesh with dense 20µs local noise and 2ms cross links. The scaling
// benchmark and both budget gates run exactly this configuration.
func federationScalingConfig() scenario.Spec {
	cfg := DefaultMeshConfig(16)
	cfg.Rounds = 10
	cfg.NoiseEvents = 3000
	cfg.NoiseInterval = 20 * logical.Microsecond
	cfg.LinkLatency = 2 * logical.Millisecond
	return cfg
}

// Reference figures of the federation-scaling workload at 4 partitions,
// measured with GOMAXPROCS=1, where the coordinator's schedule is fully
// serialized and the round count is reproducible. The budget gates
// allow 25% headroom over each.
const (
	refSyncRounds = 71
	refGrants     = 279
	refAllocs     = 63676 // heap allocations per run ...
	refEvents     = 99584 // ... over this many fired events
)

// BenchmarkFederationScaling is the E10 scaling study: one iteration =
// one full N-platform mesh run (identical workload and — asserted —
// identical report in every variant), executed single-kernel and sharded
// over 2/4/8 federated kernels. On a multi-core host the federated
// variants run the same simulation in less wall-clock time; on a single
// core they expose the coordination overhead instead. The cross-link
// latency doubles as the conservative lookahead, so wider links mean
// wider grant windows and fewer coordination rounds. Note the workload
// emits cross-partition traffic far denser than the lookahead, so the
// round count sits at the conservative floor (span/lookahead) in any
// sound coordinator; the async coordinator's win is that rounds no
// longer serialize the partitions on a multi-core host.
func BenchmarkFederationScaling(b *testing.B) {
	cfg := federationScalingConfig()

	ref, err := RunMesh(1, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	refReport := ref.Report()

	for _, parts := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("partitions-%d", parts), func(b *testing.B) {
			var events, rounds, grants uint64
			var parked int64
			for i := 0; i < b.N; i++ {
				res, err := RunMesh(1, cfg, parts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Report() != refReport {
					b.Fatal("determinism gate failed: federated report diverged from single-kernel report")
				}
				events = res.EventsFired
				rounds = res.CoordRounds
				grants = res.CoordGrants
				parked += res.CoordParkedNs
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(rounds), "sync-rounds/op")
			b.ReportMetric(float64(grants), "grants/op")
			b.ReportMetric(float64(parked)/float64(b.N), "parked-ns/op")
		})
	}
}

// TestFederationRoundsBudget is the coordination-cost regression gate:
// it re-runs the federation-scaling workload at 4 partitions once and
// fails if the coordination-round count regresses more than 25% above
// the serialized reference. Rounds only shrink with parallelism — eager
// re-grants bypass the all-parked sweep the counter tracks — so the
// serialized reference is an upper bound on any healthy schedule.
// Grants are budgeted the same way. A wall-clock benchmark would be
// noise-bound here, but the round and grant counts are structural.
func TestFederationRoundsBudget(t *testing.T) {
	res, err := RunMesh(1, federationScalingConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.CoordRounds); got > refSyncRounds*1.25 {
		t.Errorf("sync rounds at 4 partitions regressed: %v > reference %v +25%%", got, refSyncRounds)
	}
	if got := float64(res.CoordGrants); got > refGrants*1.25 {
		t.Errorf("grant count at 4 partitions regressed: %v > reference %v +25%%", got, refGrants)
	}
}

// TestFederationAllocBudget is the allocation regression gate of the
// kernel hot-path work: it re-runs the federation-scaling workload at 4
// partitions and fails if heap allocations per fired event exceed the
// reference (refAllocs over refEvents) by more than 25%. Allocation
// counts are not byte-exact across runs — goroutine scheduling shifts
// amortized growth — but a pooled-event kernel sits far enough below
// the closure-per-event one (~3x) that 25% headroom separates noise
// from regression.
func TestFederationAllocBudget(t *testing.T) {
	const refAllocsPerEvent = float64(refAllocs) / refEvents
	cfg := federationScalingConfig()
	// Warm-up run: one-time costs (lazily grown pools, map growth) are
	// not what the per-event budget tracks.
	if _, err := RunMesh(1, cfg, 4); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunMesh(1, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocsPerEvent := float64(after.Mallocs-before.Mallocs) / float64(res.EventsFired)
	if allocsPerEvent > refAllocsPerEvent*1.25 {
		t.Errorf("allocs/event at 4 partitions regressed: %.3f > reference %.3f +25%%",
			allocsPerEvent, refAllocsPerEvent)
	}
}
