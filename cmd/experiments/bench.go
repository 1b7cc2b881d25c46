package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// The -bench-json mode runs the performance benchmark suites
// programmatically (testing.Benchmark over the same workloads as the
// go-test benchmarks they mirror) and writes one machine-readable
// document — the files CI publishes and the repo commits as reference
// points (BENCH_kernel.json, BENCH_city.json, BENCH_federation.json,
// regenerated per suite with -bench-suite). Wall-clock figures are
// machine-dependent; the byte-equality gates inside each workload are
// not, and a gate failure aborts the run with a nonzero exit.

// benchResult is one benchmark's machine-readable summary line.
type benchResult struct {
	// Name identifies the mirrored benchmark (and sub-case).
	Name string `json:"name"`
	// Iterations is the b.N testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall-clock nanoseconds per iteration.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp is heap allocations per iteration.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// BytesPerOp is heap bytes per iteration.
	BytesPerOp int64 `json:"bytesPerOp"`
	// Metrics carries the benchmark's custom b.ReportMetric figures
	// (msg/sec/core, events/op, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the top-level JSON document -bench-json writes.
type benchFile struct {
	// GoVersion and GOMAXPROCS qualify the machine-dependent numbers.
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Benchmarks lists every suite entry in run order.
	Benchmarks []benchResult `json:"benchmarks"`
}

// summarize folds a testing.BenchmarkResult into the JSON shape.
func summarize(name string, r testing.BenchmarkResult) benchResult {
	out := benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		out.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			out.Metrics[k] = v
		}
	}
	return out
}

// runBench executes the selected suite ("kernel", "city",
// "federation", "monitor" or "all") and writes the combined JSON
// document to path.
func runBench(path string, quick bool, suite string) {
	var results []benchResult
	if suite == "all" || suite == "kernel" {
		results = append(results, kernelSuite()...)
	}
	if suite == "all" || suite == "city" {
		results = append(results, citySuite(quick)...)
	}
	if suite == "all" || suite == "federation" {
		results = append(results, federationSuite(quick)...)
	}
	if suite == "all" || suite == "monitor" {
		results = append(results, monitorSuite(quick)...)
	}
	writeBenchFile(path, results)
}

// kernelSuite mirrors the des/simnet hot-path microbenchmarks
// (BenchmarkKernelFire, BenchmarkProcessSwitch, BenchmarkMailboxTimedPut,
// BenchmarkSimnetDeliver): one converted closure-free path each, with
// allocs/op as the figure of interest — the committed BENCH_kernel.json
// reference pins them at zero.
func kernelSuite() []benchResult {
	var results []benchResult

	results = append(results, summarize("KernelFire", testing.Benchmark(func(b *testing.B) {
		k := des.NewKernel(1)
		count := 0
		var chain func(any)
		chain = func(any) {
			count++
			if count < b.N {
				k.Post(k.Now().Add(logical.Microsecond), chain, nil)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.Post(0, chain, nil)
		k.RunAll()
	})))

	results = append(results, summarize("ProcessSwitch", testing.Benchmark(func(b *testing.B) {
		k := des.NewKernel(1)
		k.Spawn("switcher", func(p *des.Process) {
			for i := 0; i < b.N; i++ {
				p.Sleep(logical.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		k.RunAll()
		b.StopTimer()
		k.Shutdown()
	})))

	results = append(results, summarize("MailboxTimedPut", testing.Benchmark(func(b *testing.B) {
		k := des.NewKernel(1)
		m := des.NewMailbox[int](k, "bench")
		m.PutAfter(logical.Microsecond, 0)
		k.RunAll()
		m.TryRecv()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PutAfter(logical.Microsecond, i)
			k.RunAll()
			m.TryRecv()
		}
	})))

	results = append(results, summarize("SimnetDeliver", testing.Benchmark(func(b *testing.B) {
		k := des.NewKernel(1)
		n := simnet.NewNetwork(k, simnet.Config{})
		src := n.AddHost("src", nil)
		dst := n.AddHost("dst", nil)
		from, err := src.Bind(1000)
		if err != nil {
			b.Fatal(err)
		}
		to, err := dst.Bind(2000)
		if err != nil {
			b.Fatal(err)
		}
		to.OnReceive(func(simnet.Datagram) {})
		from.Send(to.Addr(), nil)
		k.RunAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from.Send(to.Addr(), nil)
			k.RunAll()
		}
	})))

	return results
}

// citySuite mirrors BenchmarkCityScale (bench_test.go) and the trace
// recorder gate — the BENCH_city.json reference.
func citySuite(quick bool) []benchResult {
	cityN := exp.DefaultCityPlatforms
	if quick {
		cityN = 800
	}
	var results []benchResult

	// Mirrors BenchmarkCityScale (bench_test.go): one iteration = one
	// city run federated over 4 partitions, byte-equality-gated against
	// the single-kernel reference.
	cfg := exp.CityConfig{Platforms: cityN, Rounds: 2, Partitions: 4, Seed: 1}
	single := cfg
	single.Partitions = 1
	ref, err := exp.RunScenario(exp.CitySpec(single))
	if err != nil {
		log.Fatal(err)
	}
	refReport := ref.Report()
	results = append(results, summarize("CityScale", testing.Benchmark(func(b *testing.B) {
		var last *exp.CityScaleResult
		for i := 0; i < b.N; i++ {
			res, err := exp.RunCityScale(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Result.Report() != refReport {
				b.Fatal("E14 determinism gate failed in -bench-json")
			}
			last = res
		}
		b.ReportMetric(last.MsgPerSecPerCore, "msg/sec/core")
		b.ReportMetric(float64(last.Messages), "messages/op")
		b.ReportMetric(float64(last.Result.CtrlFanout), "ctrl-fanout/op")
	})))

	// Mirrors BenchmarkTraceRecord (internal/trace): the recorder
	// hot-path gate — digest-only record, 0 allocs/op.
	results = append(results, summarize("TraceRecord", testing.Benchmark(func(b *testing.B) {
		r := trace.NewRecorder(1 << 14)
		payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		r.TraceEvent(0, "plat00.client", trace.KindCall, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.TraceEvent(logical.Time(i), "plat00.client", trace.KindCall, payload)
		}
	})))

	return results
}

// federationWorkload builds the E10 federation-scaling configuration
// shared by every federation benchmark entry, plus the single-kernel
// reference report its byte-equality gate compares against.
func federationWorkload() (exp.MeshConfig, string) {
	meshCfg := exp.DefaultMeshConfig(16)
	meshCfg.Rounds = 10
	meshCfg.NoiseEvents = 3000
	meshCfg.NoiseInterval = 20 * logical.Microsecond
	meshCfg.LinkLatency = 2 * logical.Millisecond
	meshRef, err := exp.RunMesh(1, meshCfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	return meshCfg, meshRef.Report()
}

// federationBench returns the benchmark body for one partition count of
// the federation-scaling workload, reporting the coordination metrics
// next to throughput.
func federationBench(meshCfg exp.MeshConfig, refReport string, parts int) func(b *testing.B) {
	return func(b *testing.B) {
		var events, rounds, grants uint64
		var parked int64
		for i := 0; i < b.N; i++ {
			res, err := exp.RunMesh(1, meshCfg, parts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Report() != refReport {
				b.Fatal("E10 determinism gate failed in -bench-json")
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
	}
}

// federationSuite runs the federation perf-trajectory suite — the E10
// scaling workload across a GOMAXPROCS x partitions matrix — the
// BENCH_federation.json reference. The GOMAXPROCS axis is the point: on
// one scheduler thread the asynchronous coordinator degenerates to
// lock-step cadence (the conservative span/lookahead floor), while with
// parallelism the same run overlaps partition windows instead of
// serializing them; recording both exposes the coordination tax
// separately from raw throughput. CI gates sync-rounds/op and the
// allocation budget at 4 partitions against the committed copy.
func federationSuite(quick bool) []benchResult {
	meshCfg, meshRefReport := federationWorkload()
	partCounts := []int{1, 2, 4, 8}
	if quick {
		partCounts = []int{1, 4}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var results []benchResult
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, parts := range partCounts {
			name := fmt.Sprintf("FederationScaling/gomaxprocs-%d/partitions-%d", gmp, parts)
			results = append(results, summarize(name,
				testing.Benchmark(federationBench(meshCfg, meshRefReport, parts))))
		}
	}
	runtime.GOMAXPROCS(prev)
	return results
}

// monitorSuite runs the online-verification suite — the
// BENCH_monitor.json reference: the engine hot path (mirroring
// BenchmarkMonitor, allocs/op pinned at zero by the committed
// reference) and the monitored mesh, whose byte-equality gate covers
// the verdict report and whose checks/op metric is the observability
// tax figure.
func monitorSuite(quick bool) []benchResult {
	var results []benchResult

	// Mirrors BenchmarkMonitor (internal/monitor): one digest-only
	// record through the full standard safety library — 0 allocs/op.
	results = append(results, summarize("MonitorRecord", testing.Benchmark(func(b *testing.B) {
		eng := monitor.NewEngine(
			monitor.NoSilentCorruption(),
			monitor.RespondedWithin(logical.Millisecond),
			monitor.ReboundWithin(logical.Millisecond),
		)
		payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		eng.TraceEvent(0, "plat00.client", trace.KindServe, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.TraceEvent(logical.Time(i), "plat00.client", trace.KindServe, payload)
		}
	})))

	// The monitored E16 mesh: every iteration runs federated with the
	// safety library attached and must reproduce the single-kernel
	// reference bytes — report and verdicts both.
	cfg := exp.MonitorConfig{Partitions: 4, Seed: 1}
	if quick {
		cfg.Rounds = 6
	}
	single := cfg
	single.Partitions = 1
	ref, err := exp.RunScenario(exp.MonitoredSpec(single))
	if err != nil {
		log.Fatal(err)
	}
	refReport := ref.Report() + ref.VerdictReport()
	results = append(results, summarize("MonitoredMesh", testing.Benchmark(func(b *testing.B) {
		var checks, violations uint64
		for i := 0; i < b.N; i++ {
			res, err := exp.RunScenario(exp.MonitoredSpec(cfg))
			if err != nil {
				b.Fatal(err)
			}
			if res.Report()+res.VerdictReport() != refReport {
				b.Fatal("E16 determinism gate failed in -bench-json")
			}
			checks = res.MonitorChecks
			violations = res.MonitorViolations
		}
		b.ReportMetric(float64(checks), "checks/op")
		b.ReportMetric(float64(violations), "violations/op")
	})))

	return results
}

// writeBenchFile marshals the suite results, writes them to path and
// prints a human-readable echo.
func writeBenchFile(path string, results []benchResult) {
	doc := benchFile{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-44s %8d iter  %14.0f ns/op  %6d allocs/op", r.Name, r.Iterations, r.NsPerOp, r.AllocsPerOp)
		if v, ok := r.Metrics["msg/sec/core"]; ok {
			fmt.Printf("  %10.0f msg/sec/core", v)
		}
		if v, ok := r.Metrics["sync-rounds/op"]; ok {
			fmt.Printf("  %6.0f sync-rounds/op", v)
		}
		fmt.Println()
	}
	fmt.Printf("wrote %s\n", path)
}
