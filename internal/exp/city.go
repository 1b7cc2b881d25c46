package exp

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/scenario"
)

// --- Experiment E14: city-scale scenario ---
//
// The paper's evaluation federates two physical ECUs; a city-scale
// vehicle-to-infrastructure deployment runs thousands. E14 pushes the
// simulated substrate to that scale and checks that the repo's defining
// property — same seed, same bytes, in every execution mode — survives
// it. Three properties are gated:
//
//   - byte-equality: the 5000-platform scenario produces byte-identical
//     canonical reports and traces on a single kernel and federated at
//     every partition count (and under varying GOMAXPROCS) —
//     CheckDeterminism over CityGateSpecs;
//   - sub-quadratic control plane: interest-based SD routing keeps the
//     discovery fan-out growing with declared interest, not platforms²
//     (someip's control-plane test pins the ratio; the city run reports
//     the absolute counters);
//   - O(platforms) reporting: the canonical report is a fixed-size
//     per-platform fold (scenario.PlatformStats), and latency summaries
//     elsewhere use the O(bins) streaming sketch — no per-sample state.
//
// Throughput is reported as messages/sec/core: delivered datagrams per
// wall-clock second, normalized by the cores the run could actually
// use. Wall-clock figures are mode- and machine-dependent diagnostics,
// never part of the canonical report.

// CityConfig parameterizes the E14 city-scale run.
type CityConfig struct {
	// Platforms is the city size N; DefaultCityPlatforms when 0.
	Platforms int
	// Rounds overrides the preset call-round count when > 0 (the CI
	// short-mode sweep trims it to bound trace memory and runtime).
	Rounds int
	// Partitions selects the execution mode (≤ 1 = single kernel).
	Partitions int
	// Seed drives every random stream of the world.
	Seed uint64
}

// DefaultCityPlatforms is the E14 headline scale.
const DefaultCityPlatforms = 5000

// CitySpec compiles the config into the declarative city scenario.
func CitySpec(cfg CityConfig) scenario.Spec {
	n := cfg.Platforms
	if n <= 0 {
		n = DefaultCityPlatforms
	}
	spec := scenario.CityPreset(n)
	if cfg.Rounds > 0 {
		spec.Rounds = cfg.Rounds
	}
	spec.Seed = cfg.Seed
	spec.Partitions = cfg.Partitions
	return spec
}

// CityScaleResult is the outcome of one E14 run: the canonical scenario
// result plus the wall-clock throughput diagnostics.
type CityScaleResult struct {
	// Result is the canonical scenario outcome (report, trace, rows).
	Result *MeshResult
	// Elapsed is the wall-clock duration of the run (machine-dependent).
	Elapsed time.Duration
	// Cores is the number of cores the run could use: GOMAXPROCS capped
	// at the partition count (a federation runs one goroutine per
	// partition; a single kernel is sequential).
	Cores int
	// Messages is the delivered datagram count.
	Messages uint64
	// MsgPerSecPerCore is Messages / Elapsed seconds / Cores.
	MsgPerSecPerCore float64
}

// PerfReport renders the human-readable throughput summary. It is
// mode- and machine-dependent — never part of the canonical report.
func (r *CityScaleResult) PerfReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14 city seed=%d platforms=%d rounds=%d partitions=%d\n",
		r.Result.Seed, r.Result.Config.Platforms, r.Result.Config.Rounds, r.Result.Partitions)
	fmt.Fprintf(&b, "wall=%v cores=%d messages=%d msg/sec/core=%.0f\n",
		r.Elapsed.Round(time.Millisecond), r.Cores, r.Messages, r.MsgPerSecPerCore)
	fmt.Fprintf(&b, "events=%d coordRounds=%d ctrlSends=%d ctrlFanout=%d\n",
		r.Result.EventsFired, r.Result.CoordRounds, r.Result.CtrlSends, r.Result.CtrlFanout)
	return b.String()
}

// RunCityScale executes one E14 run and measures its wall-clock
// throughput. The canonical report in Result is unaffected by the
// measurement — it stays a pure function of (seed, spec).
func RunCityScale(cfg CityConfig) (*CityScaleResult, error) {
	spec := CitySpec(cfg)
	start := time.Now()
	res, err := RunScenario(spec)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	cores := runtime.GOMAXPROCS(0)
	if res.Partitions < cores {
		cores = res.Partitions
	}
	if cores < 1 {
		cores = 1
	}
	secs := elapsed.Seconds()
	var rate float64
	if secs > 0 {
		rate = float64(res.Delivered) / secs / float64(cores)
	}
	return &CityScaleResult{
		Result:           res,
		Elapsed:          elapsed,
		Cores:            cores,
		Messages:         res.Delivered,
		MsgPerSecPerCore: rate,
	}, nil
}

// CityGateSpecs is the E14 gate list: the city at cfg.Platforms and at
// one platform fewer. The city ring consumes no seed, so a seed list
// would re-run one behaviour; the platform count changes the ring and
// shifts the round-robin partition assignment (one of N and N−1 is odd,
// so at least one spec shards unevenly).
func CityGateSpecs(cfg CityConfig) []scenario.Spec {
	smaller := cfg
	smaller.Platforms = CitySpec(cfg).Platforms - 1
	return []scenario.Spec{CitySpec(cfg), CitySpec(smaller)}
}
