package dear_test

// The benchmark harness regenerates every experiment of the paper's
// evaluation (see DESIGN.md for the experiment index). Absolute numbers
// differ from the paper — the substrate is a deterministic simulator, not
// two MinnowBoard Turbot boards — but the reported custom metrics carry
// the figures' shapes: the Figure 1 outcome probabilities, the Figure 5
// error prevalence spread, the deterministic pipeline's zero errors and
// bounded latency, and the deadline/latency trade-off.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apd"
	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// BenchmarkFigure1 regenerates the Figure 1 distribution. One benchmark
// iteration = one client/server trial (3 method calls end to end).
func BenchmarkFigure1(b *testing.B) {
	cfg := exp.DefaultFigure1Config(b.N)
	res, err := exp.RunFigure1(1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Probability(0), "P0")
	b.ReportMetric(res.Probability(1), "P1")
	b.ReportMetric(res.Probability(2), "P2")
	b.ReportMetric(res.Probability(3), "P3")
}

// BenchmarkFigure1Blocking shows the serialized fix: P(3) = 1.
func BenchmarkFigure1Blocking(b *testing.B) {
	cfg := exp.DefaultFigure1Config(b.N)
	cfg.Blocking = true
	res, err := exp.RunFigure1(1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Probability(3), "P3")
}

// BenchmarkFigure5 regenerates the Figure 5 experiment. One iteration =
// one experiment instance of 2000 frames (the paper's instances are 100k
// frames; run cmd/figure5 for paper scale).
func BenchmarkFigure5(b *testing.B) {
	res, err := exp.RunFigure5(2024, b.N, 2000)
	if err != nil {
		b.Fatal(err)
	}
	min, mean, max := res.Stats()
	b.ReportMetric(min, "min%")
	b.ReportMetric(mean, "mean%")
	b.ReportMetric(max, "max%")
}

// BenchmarkDeterministicBrakeAssistant regenerates the Section IV-B
// result. One iteration = one pipeline frame.
func BenchmarkDeterministicBrakeAssistant(b *testing.B) {
	frames := b.N
	if frames < 10 {
		frames = 10
	}
	res, err := exp.RunDeterministic(1, frames)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Counters.TotalErrors()), "errors")
	b.ReportMetric(float64(res.LatencyMean)/1e6, "latency-ms")
	b.ReportMetric(float64(res.LatencyMax)/1e6, "latency-max-ms")
}

// BenchmarkBaselineBrakeAssistant is the baseline counterpart, for
// direct comparison of error counts under identical workloads.
func BenchmarkBaselineBrakeAssistant(b *testing.B) {
	frames := b.N
	if frames < 10 {
		frames = 10
	}
	bl, err := apd.NewBaseline(1, apd.DefaultBaselineConfig(frames))
	if err != nil {
		b.Fatal(err)
	}
	c := bl.Run()
	b.ReportMetric(float64(c.TotalErrors()), "errors")
	b.ReportMetric(c.Prevalence(), "prevalence%")
}

// BenchmarkTradeoff sweeps one deadline-scale point per iteration batch
// (the E5 extension study).
func BenchmarkTradeoff(b *testing.B) {
	for _, scale := range []float64{0.8, 0.9, 1.0} {
		b.Run(formatScale(scale), func(b *testing.B) {
			frames := b.N
			if frames < 10 {
				frames = 10
			}
			res, err := exp.RunTradeoff(1, frames, []float64{scale})
			if err != nil {
				b.Fatal(err)
			}
			p := res.Points[0]
			b.ReportMetric(100*p.ViolationRate, "violation%")
			b.ReportMetric(float64(p.LatencyMax)/1e6, "latency-max-ms")
		})
	}
}

func formatScale(s float64) string {
	switch s {
	case 0.8:
		return "scale-0.8"
	case 0.9:
		return "scale-0.9"
	default:
		return "scale-1.0"
	}
}

// BenchmarkFigure3RoundTrip measures one tagged method call through the
// full transactor chain of Figure 3 (client reactor → CMT → proxy →
// tagged binding → wire → skeleton → SMT → server reactor and back).
func BenchmarkFigure3RoundTrip(b *testing.B) {
	n := b.N
	if n < 1 {
		n = 1
	}
	completed, err := exp.RunMethodRoundTrips(1, n)
	if err != nil {
		b.Fatal(err)
	}
	if completed != n {
		b.Fatalf("completed %d/%d round trips", completed, n)
	}
}

// BenchmarkLoopbackRoundTrip is the E9 substrate check: one tagged
// method call through ara.Runtime over real loopback UDP sockets,
// kernels driven by the physical clock. Unlike the simulated
// experiments the numbers here are machine-dependent wall-clock times.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	n := b.N
	if n < 1 {
		n = 1
	}
	res, err := exp.RunLoopback(n, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	if res.Completed != n {
		b.Fatalf("completed %d/%d round trips", res.Completed, n)
	}
	b.ReportMetric(float64(res.RTTMean.Nanoseconds()), "rtt-ns/op")
}

// BenchmarkTagTrailerOverhead is the E6 ablation: codec cost with and
// without the DEAR tag trailer.
func BenchmarkTagTrailerOverhead(b *testing.B) {
	payload := make([]byte, 1548) // one video frame
	plain := &someip.Message{Service: 1, Method: someip.EventID(1), Type: someip.TypeNotification, Payload: payload}
	tag := logical.Tag{Time: 123456789, Microstep: 2}
	tagged := &someip.Message{Service: 1, Method: someip.EventID(1), Type: someip.TypeNotification, Payload: payload, Tag: &tag}

	b.Run("marshal-plain", func(b *testing.B) {
		buf := make([]byte, plain.WireSize())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plain.MarshalTo(buf)
		}
	})
	b.Run("marshal-tagged", func(b *testing.B) {
		buf := make([]byte, tagged.WireSize())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tagged.MarshalTo(buf)
		}
	})
	wirePlain := plain.Marshal()
	wireTagged := tagged.Marshal()
	b.Run("unmarshal-plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := someip.UnmarshalTagged(wirePlain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal-tagged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := someip.UnmarshalTagged(wireTagged); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkerScaling is the E7 ablation: the reactor scheduler's
// in-level parallelism. The logical trace is identical for every worker
// count (asserted in the reactor tests); here we measure throughput of a
// wide fan-out program under real parallel execution.
func BenchmarkWorkerScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			env := reactor.NewEnvironment(reactor.Options{Fast: true, Workers: workers})
			src := env.NewReactor("src")
			out := reactor.NewOutputPort[int](src, "out")
			timer := reactor.NewTimer(src, "t", 0, logical.Microsecond)
			n := 0
			limit := b.N
			src.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
				n++
				if n > limit {
					c.RequestStop()
					return
				}
				out.Set(c, n)
			})
			// 16 parallel workers each doing real computation.
			sink := make([]int, 16)
			for w := 0; w < 16; w++ {
				w := w
				r := env.NewReactor(benchName("w", w))
				in := reactor.NewInputPort[int](r, "in")
				reactor.Connect(out, in)
				r.AddReaction("work").Triggers(in).Do(func(c *reactor.Ctx) {
					v, _ := in.Get(c)
					acc := v
					// Enough per-reaction computation (~30µs) for in-level
					// parallelism to outweigh goroutine hand-off costs.
					for i := 0; i < 60000; i++ {
						acc = acc*1103515245 + 12345
					}
					sink[w] = acc
				})
			}
			b.ResetTimer()
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func addrOf(host, port uint16) simnet.Addr { return simnet.Addr{Host: host, Port: port} }

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s-%d", prefix, n)
}

// BenchmarkReactorEventThroughput measures raw scheduler throughput:
// events per second through a two-reactor ping chain.
func BenchmarkReactorEventThroughput(b *testing.B) {
	env := reactor.NewEnvironment(reactor.Options{Fast: true})
	r := env.NewReactor("chain")
	act := reactor.NewLogicalAction[int](r, "a", logical.Nanosecond)
	limit := b.N
	r.AddReaction("kick").Triggers(r.Startup()).Effects(act).Do(func(c *reactor.Ctx) {
		act.Schedule(c, 0, 0)
	})
	r.AddReaction("loop").Triggers(act).Effects(act).Do(func(c *reactor.Ctx) {
		v, _ := act.Get(c)
		if v < limit {
			act.Schedule(c, v+1, 0)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

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
	cfg := exp.DefaultMeshConfig(16)
	cfg.Rounds = 10
	cfg.NoiseEvents = 3000
	cfg.NoiseInterval = 20 * logical.Microsecond
	cfg.LinkLatency = 2 * logical.Millisecond

	ref, err := exp.RunMesh(1, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	refReport := ref.Report()

	for _, parts := range []int{1, 2, 4, 8} {
		b.Run(benchName("partitions", parts), func(b *testing.B) {
			var events, rounds, grants uint64
			var parked int64
			for i := 0; i < b.N; i++ {
				res, err := exp.RunMesh(1, cfg, parts)
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

// BenchmarkCityScale is the E14 throughput study: one iteration = one
// 5000-platform city scenario run federated over 4 partitions, with
// the byte-equality gate against the single-kernel reference riding
// along on every iteration. The headline metric is messages/sec/core:
// delivered datagrams per wall-clock second, normalized by the cores
// the federation could use — the figure the city-scale acceptance
// criterion tracks. cmd/experiments -bench-json mirrors this benchmark
// to emit BENCH_city.json.
func BenchmarkCityScale(b *testing.B) {
	cfg := exp.CityConfig{Platforms: exp.DefaultCityPlatforms, Rounds: 2, Partitions: 4, Seed: 1}
	single := cfg
	single.Partitions = 1
	ref, err := exp.RunScenario(exp.CitySpec(single))
	if err != nil {
		b.Fatal(err)
	}
	refReport := ref.Report()
	var last *exp.CityScaleResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunCityScale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Result.Report() != refReport {
			b.Fatal("E14 determinism gate failed: federated city report diverged from single-kernel report")
		}
		last = res
	}
	b.ReportMetric(last.MsgPerSecPerCore, "msg/sec/core")
	b.ReportMetric(float64(last.Messages), "messages/op")
	b.ReportMetric(float64(last.Result.CtrlFanout), "ctrl-fanout/op")
}

// BenchmarkFaults measures E11: the federated mesh under the full fault
// schedule — counter-based drops, a loss window, a partition window,
// jitter bursts and a crash/restart — including the per-packet fault
// verdict on every inter-host unicast. The determinism gate rides
// along: the faulted federated report must match the single-kernel one.
func BenchmarkFaults(b *testing.B) {
	cfg := exp.DefaultFaultMeshConfig(8)
	ref, err := exp.RunFaultMesh(1, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	refReport := ref.Report()
	var errs int
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFaultMesh(1, cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report() != refReport {
			b.Fatal("E11 determinism gate failed: faulted federated report diverged")
		}
		errs = 0
		for _, row := range res.Rows {
			errs += row.Errors
		}
	}
	b.ReportMetric(float64(errs), "observable-errors/op")
}

// BenchmarkTopologySweep measures E12: one iteration = the full
// topology sweep — every shape (star, ring, tree, random-regular)
// compiled by the scenario engine and executed single-kernel and
// federated. The sweep only measures; the E12 byte-equality gate is
// exp.CheckDeterminism over exp.TopologyGateSpecs.
func BenchmarkTopologySweep(b *testing.B) {
	cfg := exp.TopologySweepConfig{
		Platforms:       8,
		Rounds:          8,
		NoiseEvents:     200,
		PartitionCounts: []int{1, 2, 4},
	}
	var cells int
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTopologySweep(1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells = len(res.Entries)
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// BenchmarkTraceReplay regenerates E13: one iteration records a live
// loopback run over real UDP sockets, replays it inside a fresh
// simulated kernel and verifies the replayed outputs match the
// recorded ones record-for-record.
func BenchmarkTraceReplay(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		res, err := exp.RunReplay(20, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Match() {
			b.Fatalf("E13 replay gate failed: %s", res.Divergence)
		}
		events = res.Recorded.Len()
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkDESKernel measures raw simulation-kernel event throughput.
func BenchmarkDESKernel(b *testing.B) {
	k := des.NewKernel(1)
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			k.After(1, next)
		}
	}
	b.ResetTimer()
	k.At(0, next)
	k.RunAll()
}

// BenchmarkSomeIPSDCodec measures service-discovery encode/decode.
func BenchmarkSomeIPSDCodec(b *testing.B) {
	entries := []someip.Entry{{
		Type: someip.OfferService, Service: 0x1234, Instance: 1,
		Major: 1, Minor: 0, TTL: 3,
		Options: []someip.Option{{Type: someip.IPv4EndpointOption, Addr: addrOf(2, 40000), Proto: someip.UDPProto}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload := someip.MarshalSD(entries)
		if _, err := someip.UnmarshalSD(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticVision measures the shared computational logic
// (frame synthesis + lane detection + vehicle detection).
func BenchmarkSyntheticVision(b *testing.B) {
	s := &apd.Scene{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := s.Generate(0)
		lane := apd.Preprocess(f)
		apd.DetectVehicles(f, lane)
	}
}
