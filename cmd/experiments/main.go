// Command experiments regenerates every experiment in the paper's
// evaluation (plus the extension studies in DESIGN.md) and prints a
// report suitable for EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-quick] [-list] [-only <name>] [-scenario <file.json> [-monitors]]
//	experiments [-quick] -trace <file>
//	experiments -replay <file>
//	experiments -fuzz <n> [-seed <s>] [-fuzz-out <dir>]
//
// Any workload mode additionally accepts -cpuprofile <file> and
// -memprofile <file> to write pprof profiles of the run.
//
// Full scale (paper scale: 20×100k frames) takes a few minutes; -quick
// shrinks workloads ~20×. -list prints the experiment registry and
// exits. -scenario compiles and runs a declarative JSON scenario spec
// (see examples/scenarios/) through the scenario engine instead of the
// built-in registry; it is mutually exclusive with -only. -monitors
// attaches the standard online safety library (no silent corruption,
// responded-within, rebound-within; deadlines derived from the spec's
// own timing unless the spec carries its own monitors block) to the
// -scenario run: a violation prints the verdicts, dumps the canonical
// trace prefix up to the first violation to <file>.violation.trace for
// offline re-evaluation, and exits nonzero — the same contract as the
// -replay divergence path. -trace
// records a live loopback (real UDP) run and writes its logical event
// trace to a file; -replay re-executes a recorded trace inside the
// deterministic simulator and exits nonzero if the replayed outputs
// diverge from the recorded ones (E13). -trace and -replay are
// mutually exclusive. -fuzz runs a seeded
// offline fuzzing campaign of n generated scenario specs through the
// determinism property (single-kernel vs federated byte-equality);
// -seed keys the campaign (default 1) and -fuzz-out selects where the
// shrunk minimal repro of a divergence is written (default
// examples/regressions, the ready-to-commit location). All experiments except
// loopback and replay are deterministic; those use real UDP sockets.
// Timing lines ("completed in", city throughput) are wall-clock.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apd"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

type experiment struct {
	name string
	desc string
	run  func()
}

func main() {
	quick := flag.Bool("quick", false, "run reduced workloads")
	only := flag.String("only", "", "run a single experiment")
	list := flag.Bool("list", false, "print the experiment registry and exit")
	scenarioFile := flag.String("scenario", "", "compile and run a declarative JSON scenario spec")
	monitors := flag.Bool("monitors", false, "attach the standard online safety monitors to the -scenario run (nonzero exit + trace-prefix dump on violation)")
	traceFile := flag.String("trace", "", "record a live loopback run and write its trace to this file")
	replayFile := flag.String("replay", "", "replay a recorded trace file in the simulator and verify outputs")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fuzzN := flag.Int("fuzz", 0, "run a seeded fuzzing campaign of this many generated specs through the determinism property")
	fuzzSeed := flag.Uint64("seed", 1, "campaign seed for -fuzz (spec i is fuzzer.Gen(seed, i))")
	fuzzOut := flag.String("fuzz-out", "examples/regressions", "directory receiving the shrunk repro spec and report when -fuzz finds a divergence")
	flag.Parse()

	if (*cpuProfile != "" || *memProfile != "") && *list {
		fmt.Fprintln(os.Stderr, "experiments: -cpuprofile/-memprofile need a workload to profile and are mutually exclusive with -list")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	f1Trials, f5Inst, f5Frames, detFrames, detSeeds, toFrames := 20000, 20, 100000, 20000, 3, 5000
	meshN, meshRounds, meshNoise := 16, 40, 2000
	faultFrames := 2000
	topoCfg := exp.DefaultTopologySweepConfig()
	if *quick {
		f1Trials, f5Inst, f5Frames, detFrames, detSeeds, toFrames = 2000, 10, 5000, 2000, 2, 1000
		meshN, meshRounds, meshNoise = 8, 10, 200
		faultFrames = 400
		topoCfg.Platforms, topoCfg.Rounds, topoCfg.NoiseEvents = 8, 6, 100
	}

	experiments := []experiment{
		{"figure1", "E1: Figure 1 outcome distribution of non-blocking calls", func() {
			res, err := exp.RunFigure1(1, exp.DefaultFigure1Config(f1Trials))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("non-blocking client, %d trials:\n%s", f1Trials, res.Table())
			cfg := exp.DefaultFigure1Config(f1Trials / 10)
			cfg.Blocking = true
			fixed, err := exp.RunFigure1(1, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nblocking client (the fix), %d trials: P(3) = %.3f\n",
				cfg.Trials, fixed.Probability(3))
		}},

		{"figure5", "E3: Figure 5 baseline error prevalence across seeds", func() {
			res, err := exp.RunFigure5(2024, f5Inst, f5Frames)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(res.Table())
			min, mean, max := res.Stats()
			fmt.Printf("prevalence: min=%.3f%% mean=%.3f%% max=%.3f%%\n", min, mean, max)
			fmt.Println("paper      : min=0.018% mean=5.60% max=22.25% (100k frames)")
		}},

		{"deterministic", "E4: DEAR brake assistant, zero errors across physical seeds", func() {
			results, err := exp.RunDeterminismCheck(1, detSeeds, detFrames)
			if err != nil {
				log.Fatal(err)
			}
			for i, r := range results {
				fmt.Printf("seed %d: errors=%d processed=%d/%d latency mean=%v max=%v brakes=%d behaviour=%016x\n",
					i+1, r.Counters.TotalErrors(), r.Counters.FramesProcessed, detFrames,
					r.LatencyMean, r.LatencyMax, r.BrakeOns, r.BehaviorHash)
			}
			fmt.Println("behaviour identical across physical seeds; zero errors (paper: \"correct and deterministic execution\")")
			bl, err := apd.NewBaseline(1, apd.DefaultBaselineConfig(detFrames))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nper-stage error counters, seed 1, %d frames:\n%s", detFrames, stageErrors(bl.Run(), &results[0].Counters))
		}},

		{"tradeoff", "E5: deadline scale vs latency/error trade-off sweep", func() {
			res, err := exp.RunTradeoff(1, toFrames, []float64{0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.2})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(res.Table())
			fmt.Println("lower deadline scale: lower latency, sporadic observable errors (Section IV-B trade-off)")
		}},

		{"split", "E4 extension: CV+EBA split onto a drifting third platform", func() {
			d, err := apd.NewDeterministic(1, apd.SplitDeterministicConfig(detFrames))
			if err != nil {
				log.Fatal(err)
			}
			c := d.Run()
			single, err := apd.NewDeterministic(1, apd.DefaultDeterministicConfig(detFrames))
			if err != nil {
				log.Fatal(err)
			}
			single.Run()
			identical := len(d.BrakeSeq) == len(single.BrakeSeq)
			if identical {
				for i := range d.BrakeSeq {
					if d.BrakeSeq[i] != single.BrakeSeq[i] {
						identical = false
						break
					}
				}
			}
			fmt.Printf("CV+EBA on a third platform (±30ppm drift, ±1ms sync, E=2.5ms):\n")
			fmt.Printf("errors=%d processed=%d/%d, behaviour identical to single-platform: %v\n",
				c.TotalErrors(), c.FramesProcessed, detFrames, identical)
			fmt.Println("distribution across imperfectly-synchronized platforms is semantically invisible")
		}},

		{"latency", "E8: end-to-end latency profiles, baseline vs DEAR", func() {
			res, err := exp.RunLatencyComparison(1, toFrames)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(res.Table())
			fmt.Println("DEAR trades average latency for a bounded, error-free profile (Section IV-B)")
		}},

		{"overhead", "E6: wire-size overhead of the DEAR tag trailer", func() {
			r := exp.MeasureTagOverhead()
			fmt.Printf("frame notification: %d bytes untagged, %d bytes tagged (+%d bytes, %.2f%%)\n",
				r.PlainBytes, r.TaggedBytes, r.TaggedBytes-r.PlainBytes, 100*r.OverheadFraction)
			fmt.Printf("the %d-byte trailer is the entire wire cost of determinism\n",
				r.TaggedBytes-r.PlainBytes)
		}},

		{"loopback", "E9: tagged round trips over real loopback UDP sockets", func() {
			n := 500
			if *quick {
				n = 50
			}
			res, err := exp.RunLoopback(n, 5*time.Second)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(res.Table())
			fmt.Println("same runtime and tagged binding as above, real UDP sockets (E9; machine-dependent numbers)")
		}},

		{"mesh", "E10: federated N-platform mesh, byte-identical to single kernel", func() {
			cfg := exp.DefaultMeshConfig(meshN)
			cfg.Rounds = meshRounds
			cfg.NoiseEvents = meshNoise
			cfg.Seed = 1
			parts := 4
			refs, err := exp.CheckDeterminism(exp.MeshGateSpecs(cfg), []int{2, parts}, nil, exp.RequireTraffic)
			if err != nil {
				log.Fatalf("E10 determinism gate FAILED: %v", err)
			}
			fed, err := exp.RunMesh(1, cfg, parts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(fed.Table())
			fmt.Printf("%d platforms: single kernel fired %d events; %d federated kernels fired %d events over %d coordination rounds\n",
				meshN, refs[0].EventsFired, fed.Partitions, fed.EventsFired, fed.CoordRounds)
			fmt.Printf("E10 determinism gate: reports and traces byte-identical to single kernel across ring degrees %d..1 × partitions [2 %d]\n",
				cfg.Degree, parts)
			fmt.Println("conservative synchronization shards the simulation without changing a single byte (E10)")
		}},

		{"faults", "E11: deterministic fault injection & recovery under sharding", func() {
			meshCfg := exp.DefaultFaultMeshConfig(meshN)
			res, err := exp.RunFaults(1, faultFrames, meshCfg, 4)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("brake assistant under a seeded fault schedule (loss, partition, jitter bursts), %d frames:\n", faultFrames)
			fmt.Print(res.Pipeline.Table())
			fmt.Println("baseline computes on corrupt inputs (silent); every DEAR failure is a counted, observable error")
			errsTotal := 0
			for _, row := range res.Mesh.Rows {
				errsTotal += row.Errors
			}
			fmt.Printf("\nfaulted federated mesh (%d platforms, drop rate %.0f%%, partition window, crash+restart of platform %d): %d observable call failures\n",
				meshN, 100*meshCfg.Faults.DropRate, meshCfg.Crash.Platform, errsTotal)
			if _, err := exp.CheckDeterminism(exp.FaultGateSpecs(meshCfg, 1, 3), []int{2, 3, 4}, nil, exp.RequireFaultErrors); err != nil {
				log.Fatalf("E11 determinism gate FAILED: %v", err)
			}
			fmt.Println("E11 determinism gate: byte-identical reports across 3 seeds × {1,2,3,4} partitions under the full fault schedule")
		}},

		{"replay", "E13: record a live UDP run, replay it bit-for-bit in the simulator", func() {
			n := 200
			if *quick {
				n = 40
			}
			res, err := exp.RunReplay(n, 5*time.Second)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(res.Table())
			if !res.Match() {
				log.Fatalf("E13 replay gate FAILED: first divergence: %s", res.Divergence)
			}
			fmt.Println("replayed outputs byte-identical to the recorded physical run (E13): the application is a pure function of its tagged inputs")
		}},

		{"city", "E14: city-scale scenario — throughput and byte-equality at N=5000", func() {
			cityN, cityRounds := 5000, 2
			if *quick {
				cityN = 800
			}
			cfg := exp.CityConfig{Platforms: cityN, Rounds: cityRounds, Partitions: 4, Seed: 1}
			res, err := exp.RunCityScale(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(res.PerfReport())
			parts := []int{1, 4, 16}
			if *quick {
				parts = []int{1, 4}
			}
			if _, err := exp.CheckDeterminism(exp.CityGateSpecs(cfg), parts, nil, exp.RequireTraffic); err != nil {
				log.Fatalf("E14 determinism gate FAILED: %v", err)
			}
			fmt.Printf("E14 determinism gate: byte-identical reports and traces across partitions %v at %d and %d platforms\n",
				parts, cityN, cityN-1)
			fmt.Println("interest-based SD keeps the control plane sub-quadratic; the report is one fixed-size row per platform")
		}},

		{"monitors", "E16: online runtime verification — deterministic verdicts, violation repro", func() {
			specs := 3
			parts := []int{1, 2, 4}
			if *quick {
				specs = 2
			}
			refs, err := exp.CheckDeterminism(exp.MonitorGateSpecs(exp.MonitorConfig{Seed: 1}, specs), parts, nil, exp.RequireMonitorChecks)
			if err != nil {
				log.Fatalf("E16 determinism gate FAILED: %v", err)
			}
			fmt.Printf("E16 determinism gate: monitor verdicts byte-identical across %d mesh sizes from %d platforms down × partitions %v\n",
				specs, exp.DefaultMonitorPlatforms, parts)
			fmt.Printf("reference verdicts (seed 1):\n%s", tailLines(refs[0].Report()+refs[0].VerdictReport(), 4))

			// The violation-repro round trip: a deliberately broken spec
			// trips the responded-within monitor, the violated run dumps
			// its trace prefix, and offline re-evaluation of the dump
			// reproduces the violation.
			res, err := exp.RunScenario(exp.BrokenMonitoredSpec(1))
			if err != nil {
				log.Fatal(err)
			}
			if res.MonitorViolations == 0 {
				log.Fatal("E16 non-vacuity FAILED: the broken spec tripped no monitor")
			}
			dump, err := os.CreateTemp("", "e16-violation-*.trace")
			if err != nil {
				log.Fatal(err)
			}
			dump.Close()
			defer os.Remove(dump.Name())
			first, err := exp.DumpViolationPrefix(res, dump.Name())
			if err != nil {
				log.Fatal(err)
			}
			replayed, err := exp.ReplayViolationDump(dump.Name(), exp.BrokenMonitoredSpec(1))
			if err != nil {
				log.Fatal(err)
			}
			if !exp.ContainsViolation(replayed, first) {
				log.Fatalf("E16 violation repro FAILED: replayed verdicts do not contain %s", first)
			}
			fmt.Printf("violation repro: broken spec tripped %d violations; dumped prefix replays to the same first violation (%s)\n",
				res.MonitorViolations, first)
		}},

		{"topo", "E12: topology sweep (star/ring/tree/random-regular × partitions)", func() {
			res, err := exp.RunTopologySweep(1, topoCfg)
			if err != nil {
				log.Fatalf("E12 sweep FAILED: %v", err)
			}
			fmt.Print(res.Table())
			gateSeeds := 3
			if _, err := exp.CheckDeterminism(exp.TopologyGateSpecs(topoCfg, 1, gateSeeds), topoCfg.PartitionCounts, nil, exp.RequireTraffic); err != nil {
				log.Fatalf("E12 determinism gate FAILED: %v", err)
			}
			fmt.Printf("E12 determinism gate: byte-identical federated vs single-kernel reports and traces for every shape × partitions %v, random-regular across %d seeds\n",
				topoCfg.PartitionCounts, gateSeeds)
		}},
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-14s %s\n", e.name, e.desc)
		}
		return
	}

	if *traceFile != "" && *replayFile != "" {
		fmt.Fprintln(os.Stderr, "experiments: -trace and -replay are mutually exclusive (record first, then replay the file)")
		os.Exit(2)
	}
	if (*traceFile != "" || *replayFile != "") && (*only != "" || *scenarioFile != "") {
		fmt.Fprintln(os.Stderr, "experiments: -trace/-replay replace the registry and are mutually exclusive with -only and -scenario")
		os.Exit(2)
	}
	if *fuzzN > 0 {
		if *only != "" || *scenarioFile != "" || *traceFile != "" || *replayFile != "" {
			fmt.Fprintln(os.Stderr, "experiments: -fuzz replaces the registry and is mutually exclusive with -only, -scenario, -trace and -replay")
			os.Exit(2)
		}
		runFuzz(*fuzzN, *fuzzSeed, *fuzzOut)
		return
	}
	if *traceFile != "" {
		n := 200
		if *quick {
			n = 40
		}
		runTraceRecord(*traceFile, n)
		return
	}
	if *replayFile != "" {
		runTraceReplay(*replayFile)
		return
	}

	if *monitors && *scenarioFile == "" {
		fmt.Fprintln(os.Stderr, "experiments: -monitors attaches the safety library to a spec run and requires -scenario")
		os.Exit(2)
	}
	if *scenarioFile != "" {
		if *only != "" {
			fmt.Fprintln(os.Stderr, "experiments: -scenario and -only are mutually exclusive (a JSON spec replaces the registry)")
			os.Exit(2)
		}
		runScenarioFile(*scenarioFile, *monitors)
		return
	}

	if *only != "" {
		found := false
		for _, e := range experiments {
			if e.name == *only {
				found = true
				break
			}
		}
		if !found {
			names := make([]string, len(experiments))
			for i, e := range experiments {
				names[i] = e.name
			}
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; valid choices: %s\n",
				*only, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	for _, e := range experiments {
		if *only != "" && *only != e.name {
			continue
		}
		t0 := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		e.run()
		fmt.Printf("(%s completed in %v)\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
}

// runTraceRecord records a live n-round-trip loopback run over real
// UDP sockets and persists its logical event trace (tagged inputs in
// full, outputs as digests) to path, in the deterministic binary
// format. Replay it later with -replay, or inspect it with
// someip-dump -trace.
func runTraceRecord(path string, n int) {
	t0 := time.Now()
	rec, live, err := exp.RecordLoopback(n, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteFile(path, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d round trips over real UDP in %v (rtt mean %v)\n",
		live.Completed, time.Since(t0).Round(time.Millisecond), live.RTTMean)
	fmt.Printf("trace: %d events (%d stored inputs, %d output digests) -> %s\n",
		rec.Len(), rec.Filter(trace.KindRecv).Len(), rec.Filter(trace.KindSend).Len(), path)
}

// runTraceReplay loads a recorded trace, re-executes it inside a
// fresh deterministic kernel and diffs the replayed outputs against
// the recorded ones (times stripped). Divergence is fatal — the exit
// status is the CI contract.
func runTraceReplay(path string) {
	rec, err := trace.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := exp.ReplaySimulated(rec)
	if err != nil {
		log.Fatal(err)
	}
	if d := trace.FirstDivergence(rec.WithoutTimes(), replayed.WithoutTimes()); d != nil {
		log.Fatalf("replay DIVERGED from the recorded run: %s", d)
	}
	fmt.Printf("replayed %s: %d events reproduced bit-for-bit (%d inputs re-injected, %d outputs matched)\n",
		path, replayed.Len(), rec.Filter(trace.KindRecv).Len(), rec.Filter(trace.KindSend).Len())
}

// runScenarioFile compiles a declarative JSON spec, prints its
// canonical world description, executes it at the spec's partition
// count, and — when the spec asks for a federated run — verifies the
// byte-equality determinism gate against the single-kernel reference.
// With monitors set, the standard online safety library rides the run
// (unless the spec carries its own monitors block, which wins); a
// violation dumps the trace prefix up to the first violation to
// <path>.violation.trace and exits nonzero, mirroring the -replay
// divergence contract.
func runScenarioFile(path string, monitors bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		log.Fatal(err)
	}
	if monitors && spec.Monitors == nil {
		spec.Monitors = scenario.DefaultMonitors(spec)
	}
	desc, err := scenario.Describe(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== scenario %s ===\n%s\n", path, desc)
	t0 := time.Now()
	res, err := exp.RunScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())
	if len(res.Verdicts) > 0 {
		fmt.Print(res.VerdictReport())
	}
	fmt.Printf("(%d partitions, %d events, %d coordination rounds, %v)\n",
		res.Partitions, res.EventsFired, res.CoordRounds, time.Since(t0).Round(time.Millisecond))
	if res.MonitorViolations > 0 {
		dumpPath := path + ".violation.trace"
		first, dumpErr := exp.DumpViolationPrefix(res, dumpPath)
		if dumpErr != nil {
			log.Fatalf("monitor gate FAILED: %d violations (prefix dump failed: %v)",
				res.MonitorViolations, dumpErr)
		}
		log.Fatalf("monitor gate FAILED: %d violations; first: %s\ntrace prefix dumped to %s (re-evaluate offline with monitor.Evaluate)",
			res.MonitorViolations, first, dumpPath)
	}
	if len(res.Verdicts) > 0 {
		fmt.Printf("monitor gate: %d obligations checked, 0 violations\n", res.MonitorChecks)
	}
	if res.Partitions > 1 {
		_, div, err := exp.CompareSpecModes(spec, []int{res.Partitions}, nil)
		if err != nil {
			log.Fatal(err)
		}
		if div != nil {
			log.Fatalf("determinism gate FAILED:\n%s", div)
		}
		fmt.Println("determinism gate: federated report and trace byte-identical to single-kernel run")
	}
}

// stageErrors renders the brake assistant's per-stage error counters,
// the stock baseline next to DEAR.
func stageErrors(b, d *apd.ErrorCounters) *metrics.Table {
	t := metrics.NewTable("metric", "baseline", "DEAR")
	t.Row("frames sent", b.FramesSent, d.FramesSent)
	t.Row("frames processed", b.FramesProcessed, d.FramesProcessed)
	t.Row("dropped frames (Preprocessing)", b.DroppedPre, d.DroppedPre)
	t.Row("dropped frames (Computer Vision)", b.DroppedCV, d.DroppedCV)
	t.Row("input mismatches (Computer Vision)", b.MismatchCV, d.MismatchCV)
	t.Row("dropped vehicles (EBA)", b.DroppedEBA, d.DroppedEBA)
	t.Row("deadline violations", b.DeadlineViolations, d.DeadlineViolations)
	t.Row("safe-to-process violations", b.SafeToProcessViolations, d.SafeToProcessViolations)
	t.Row("error prevalence", fmt.Sprintf("%.3f%%", b.Prevalence()), fmt.Sprintf("%.3f%%", d.Prevalence()))
	return t
}

// tailLines returns the last n lines of s (all of s when shorter) —
// used to surface the verdict block of a combined report.
func tailLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n") + "\n"
}
