package scenario

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/simnet"
	"repro/internal/someip"
	"repro/internal/trace"
)

// Wire constants of the compiled client/server world. They are part of
// the canonical world description: every platform offers its compute
// service on Port and runs its local-noise sink on NoisePort.
const (
	// ServiceBase is the SOME/IP service ID of platform 0's compute
	// service; platform i offers ServiceBase+i.
	ServiceBase = someip.ServiceID(0x2100)
	// Port is the compute service's endpoint port on every platform.
	Port = 40000
	// NoisePort is the local load generator's sink port.
	NoisePort = 41000
)

// HostID returns the simnet host ID platform i receives during world
// construction, for every partition count: hosts are added in platform
// order and the Cluster allocates IDs sequentially from 1.
// Fault plans that target specific platform links are built from it.
func HostID(i int) uint16 { return uint16(i) + 1 }

// HostName returns platform i's canonical host name.
func HostName(i int) string { return fmt.Sprintf("plat%02d", i) }

const fnvOffset uint64 = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// World is a compiled scenario: the execution substrate (a federation,
// of one partition or more) and its cluster, the platform hosts and
// runtimes, the topology edges the clients follow, and the per-platform
// stats the workload folds its observable behaviour into. Run executes
// it to completion.
type World struct {
	// Spec is the normalized spec the world was compiled from.
	Spec Spec
	// Edges is the generated call graph: Edges[i] lists the platforms
	// client i calls each round.
	Edges [][]int
	// Hosts are the platform hosts in platform order.
	Hosts []*simnet.Host
	// Runtimes are the platforms' ara runtimes in platform order (the
	// original incarnations; a crash-plan restart builds a successor
	// that is not recorded here).
	Runtimes []*ara.Runtime
	// Stats accumulates the canonical per-platform report rows.
	Stats []PlatformStats

	// ifaces are the platforms' compute service interfaces, built once
	// per world and shared by the skeleton and every proxy edge.
	ifaces []*ara.ServiceInterface

	fed     *des.Federation
	cluster *simnet.Cluster
	// recorders hold one trace recorder per partition kernel.
	recorders []*trace.Recorder
	// comps hold each platform's trace component ids, in platform
	// order (see buildSubstrate).
	comps []platformComps
	// engines hold one monitor engine per kernel when the spec's
	// monitors block is set, each the tap of its kernel's recorder
	// (see buildSubstrate).
	engines []*monitor.Engine
	// monitorsDone marks that the engines have been finished (flushed);
	// Verdicts sets it so repeated calls stay idempotent.
	monitorsDone bool
}

// Build compiles the spec into a runnable world on a federation of
// Partitions kernels, with the platforms sharded round-robin over them;
// one partition is the single-kernel run, whose lone kernel the
// federation runs directly. For a fixed (Spec minus Partitions) the
// world's behaviour — and with it StatsReport(Stats) after Run — is
// identical for every partition count; only wall-clock time and
// mode-internal diagnostics differ.
//
// Construction order is part of the determinism contract and is fixed:
// substrate, hosts in platform order, then all servers, then all
// clients and noise generators, then the crash plan.
func Build(spec Spec) (*World, error) {
	norm, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	edges, err := Topology(norm.Topology, norm.Platforms, norm.Degree, norm.Seed)
	if err != nil {
		return nil, err
	}
	w := &World{Spec: norm, Edges: edges}
	if err := w.buildSubstrate(); err != nil {
		return nil, err
	}

	n := norm.Platforms
	w.Stats = make([]PlatformStats, n)
	w.Runtimes = make([]*ara.Runtime, n)
	w.ifaces = make([]*ara.ServiceInterface, n)
	for i := range w.ifaces {
		w.ifaces[i] = Iface(i)
	}

	// Pass 1: servers. Every platform offers its compute service and,
	// in a world with noise, binds the local-noise sink. Scheduling
	// order within each kernel is part of the determinism contract, so
	// construction order is fixed: all servers before all clients.
	for i := 0; i < n; i++ {
		rt, err := w.buildServer(i, fmt.Sprintf("mesh%02d", i))
		if err != nil {
			return nil, err
		}
		w.Runtimes[i] = rt
	}

	// Pass 2: clients and noise generators.
	for i := 0; i < n; i++ {
		i := i
		host := w.Hosts[i]
		w.spawnClient(w.Runtimes[i], i, norm.Rounds, 0)

		// Local load generator: loopback datagrams on this platform only,
		// so its cost parallelizes across partitions without changing any
		// cross-platform interaction. If the platform crashes, its source
		// endpoint closes and the remaining sends are suppressed.
		if norm.NoiseEvents > 0 {
			src := host.MustBind(NoisePort + 1)
			sinkAddr := simnet.Addr{Host: host.ID(), Port: NoisePort}
			k := w.Runtimes[i].Kernel()
			// The noise chain's events are ordinary queued events, so
			// dense ticks hold its partition's earliest-event bound close
			// to its clock and downstream grants advance at about the
			// channel lookahead.
			k.Post(k.Now(), noiseTick, &noise{
				k: k, src: src, sink: sinkAddr,
				interval: norm.NoiseInterval, n: norm.NoiseEvents,
			})
		}
	}

	// Pass 3: the crash plan. The schedule is installed up front as
	// ordinary kernel events, so it is ordered deterministically against
	// all traffic in every execution mode.
	if cp := norm.Crash; cp != nil {
		host := w.Hosts[cp.Platform]
		host.Crash(cp.At)
		// Lifecycle trace points ride the platform's own kernel so the
		// crash/restart/bind records form one component stream — the
		// rebound-within monitor pairs restart with the re-offer's bind.
		lk := w.Runtimes[cp.Platform].Kernel()
		life := w.comps[cp.Platform].life
		lk.At(cp.At, func() { lk.Trace(life, trace.KindCrash, nil) })
		if cp.RestartAt > cp.At {
			host.Restart(cp.RestartAt, func() {
				lk.Trace(life, trace.KindRestart, nil)
				// Rebuild the platform's stack from scratch, as a rebooted
				// AP node would: fresh runtime (distinct name — RNG
				// stream labels must not collide with the dead
				// incarnation), skeleton re-offered, reborn client. The
				// platform's trace components are the same ones.
				rt, err := w.buildServer(cp.Platform, fmt.Sprintf("mesh%02dr", cp.Platform))
				if err != nil {
					panic(err)
				}
				w.spawnClient(rt, cp.Platform, cp.RebornRounds, 0x7eb0)
			})
		}
	}
	return w, nil
}

// platformComps are one platform's trace component ids, registered
// once on its partition kernel when the world is built. Every
// incarnation of the platform traces under them, so a reborn platform's
// records continue its streams with the next sequence numbers.
type platformComps struct {
	server, life, client uint32
	noise                uint32 // registered only when the spec has noise
}

// noise is one platform's local load generator: a chain of transient
// events, one per NoiseInterval, the m-th sending datagram m.
type noise struct {
	k        *des.Kernel
	src      *simnet.Endpoint
	sink     simnet.Addr
	interval logical.Duration
	m, n     int
	buf      [4]byte
}

// noiseTick is the noise chain's event body: it sends datagram m, then
// posts the next tick. The tick after the last send does nothing; it
// belongs to the generator's schedule (its start, a delivery and a tick
// per send, and a final tick), which TestNoiseWorldMatchesPinnedDigests
// fixes.
func noiseTick(a any) {
	g := a.(*noise)
	if g.m == g.n {
		return
	}
	binary.BigEndian.PutUint32(g.buf[:], uint32(g.m))
	g.src.Send(g.sink, g.buf[:])
	g.m++
	g.k.Post(g.k.Now().Add(g.interval), noiseTick, g)
}

// traceCapacityPartition bounds the trace ring for the platforms pinned
// to one partition (platform i lives on partition i % partitions): the
// partition records its own clients' req and call/call-err records
// (outbound edges, two records per call), its own servers' serve
// records (inbound edges), its own initial binds and its own noise
// deliveries. Under a crash plan, the reborn client adds at most
// RebornRounds rounds on its own edges, and its calls at most as many
// serves; 256 records of slack cover the crash, restart and rebind.
// Complete traces are a determinism requirement (eviction is
// mode-dependent), so the bound is computed from the actual generated
// edges — Degree alone undercounts the Full shape, whose clients call
// all n-1 peers. A fault- and crash-free world records exactly the
// bound less the slack. Sized per partition, the federation's total
// ring memory does not grow with the partition count.
func (w *World) traceCapacityPartition(part, partitions int) int {
	if traceCapacityForTesting > 0 {
		return traceCapacityForTesting
	}
	spec := w.Spec
	rounds := spec.Rounds
	if spec.Crash != nil {
		rounds += spec.Crash.RebornRounds
	}
	out, in, noisy := 0, 0, 0
	for i, edges := range w.Edges {
		if i%partitions == part {
			out += len(edges)
			noisy++
		}
		for _, j := range edges {
			if j%partitions == part {
				in++
			}
		}
	}
	return rounds*(2*out+in) + noisy*(spec.NoiseEvents+1) + 256
}

// traceCapacityForTesting, when positive, replaces every partition's
// trace ring capacity estimate. Installed only by
// ShrinkTraceRingsForTesting.
var traceCapacityForTesting int

// ShrinkTraceRingsForTesting makes every subsequently built world size
// each partition's trace ring to capacity records (at least 16), so a
// test can make a run overflow its rings, and returns a restore func.
// Not safe for concurrent worlds: it is process-global.
func ShrinkTraceRingsForTesting(capacity int) (restore func()) {
	traceCapacityForTesting = capacity
	return func() { traceCapacityForTesting = 0 }
}

// buildSubstrate creates the federation, its cluster, the per-kernel
// trace recorders and the platform hosts, and registers each
// platform's trace components on its partition kernel.
func (w *World) buildSubstrate() error {
	spec := w.Spec
	netCfg := simnet.Config{
		DefaultLatency: simnet.FixedLatency(spec.LinkLatency),
		SwitchDelay:    spec.SwitchDelay,
		Faults:         spec.Faults,
	}
	// Each kernel traces into its own recorder. With a monitors block,
	// a monitor engine with freshly built (stateful) monitors is the
	// recorder's tap, so online verification observes exactly the
	// records the recorder sequenced and stored.
	w.fed = des.NewFederation(spec.Seed, spec.Partitions)
	for i := 0; i < w.fed.Partitions(); i++ {
		rec := trace.NewRecorder(w.traceCapacityPartition(i, spec.Partitions))
		if spec.Monitors != nil {
			eng := monitor.NewEngine(spec.Monitors.Build()...)
			w.engines = append(w.engines, eng)
			rec.SetTap(eng)
		}
		w.fed.Kernel(i).SetTracer(rec)
		w.recorders = append(w.recorders, rec)
	}
	// Cross-partition traffic in a compiled world flows only along call
	// edges (requests out, responses back): noise is loopback-local and
	// SD multicast is per-partition by the Cluster contract. Declaring
	// exactly those partition routes gives the federation a sparse
	// lookahead matrix, so partitions whose platforms never talk stop
	// constraining each other's grants.
	allowed := make([][]bool, spec.Partitions)
	for i := range allowed {
		allowed[i] = make([]bool, spec.Partitions)
	}
	for i, edges := range w.Edges {
		pi := i % spec.Partitions
		for _, j := range edges {
			pj := j % spec.Partitions
			if pi != pj {
				allowed[pi][pj] = true
				allowed[pj][pi] = true
			}
		}
	}
	cluster, err := simnet.NewCluster(w.fed, netCfg, func(from, to int) bool {
		return allowed[from][to]
	})
	if err != nil {
		return err
	}
	w.cluster = cluster
	w.comps = make([]platformComps, spec.Platforms)
	for i := 0; i < spec.Platforms; i++ {
		part := i % spec.Partitions
		host := cluster.AddHost(part, HostName(i))
		w.Hosts = append(w.Hosts, host)
		k, c := w.fed.Kernel(part), &w.comps[i]
		c.server = k.Component(host.Name() + ".server")
		c.life = k.Component(host.Name() + ".life")
		c.client = k.Component(host.Name() + ".client")
		if spec.NoiseEvents > 0 {
			c.noise = k.Component(host.Name() + ".noise")
		}
	}
	return nil
}

// computeMethods is the method table every platform's compute
// service shares; it is never modified.
var computeMethods = []ara.MethodSpec{{ID: 1, Name: "compute"}}

// Iface returns platform i's compute service interface.
func Iface(i int) *ara.ServiceInterface {
	return &ara.ServiceInterface{
		Name:    fmt.Sprintf("Mesh%02d", i),
		ID:      ServiceBase + someip.ServiceID(i),
		Major:   1,
		Methods: computeMethods,
	}
}

// buildServer creates platform i's runtime, compute skeleton and, when
// the spec has noise, local-noise sink. It is used for initial
// construction and again by the crash plan's restart path (with a
// distinct runtime name, so RNG stream labels never collide between
// the two incarnations). Served counts and the noise hash continue
// across a restart: the stats carry the platform's whole history.
func (w *World) buildServer(i int, name string) (*ara.Runtime, error) {
	host := w.Hosts[i]
	rows := w.Stats
	spec := w.Spec
	zeroJitter := func(*des.Rand) logical.Duration { return 0 }
	rt, err := ara.NewRuntime(host, ara.Config{
		Name: name,
		Port: Port,
		Exec: ara.ExecConfig{Workers: 2, Serialized: true, DispatchJitter: zeroJitter},
	})
	if err != nil {
		return nil, err
	}
	sk, err := rt.NewSkeleton(w.ifaces[i], 1)
	if err != nil {
		return nil, err
	}
	k := rt.Kernel()
	comps := w.comps[i]
	if err := sk.Handle("compute", func(c *ara.Ctx, args []byte) ([]byte, error) {
		if corruptCheck != nil && corruptCheck(args) {
			// The integrity check failed without a structural refusal:
			// emit the corruption sentinel the no-silent-corruption
			// monitor watches for. Only the test hook ever sets the
			// check — the DEAR model refuses corrupt inputs structurally,
			// so production handlers never reach this line.
			k.Trace(comps.server, trace.KindCorrupt, args)
		}
		rows[i].Served++
		h := fnvOffset
		for _, by := range args {
			h = fnvMix(h, uint64(by))
		}
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, uint64(rows[i].Served))
		if chaosServeDraw != nil {
			h = fnvMix(h, chaosServeDraw())
		}
		if spec.WorkSpread > 0 {
			c.Exec(spec.WorkBase + logical.Duration(h%uint64(spec.WorkSpread)))
		} else if spec.WorkBase > 0 {
			c.Exec(spec.WorkBase)
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], h)
		// The trace point sits at computation completion: time and
		// result are mode-independent, and the per-component sequence
		// follows the platform's deterministic serve order.
		k.Trace(comps.server, trace.KindServe, out[:])
		return out[:], nil
	}); err != nil {
		return nil, err
	}
	if k.Now() == 0 {
		k.At(0, func() {
			sk.Offer()
			// The bind record closes a rebound-within obligation on the
			// lifecycle component. The initial bind has no preceding
			// restart, so the monitor ignores it; the restart path's bind
			// (below, k.Now() > 0) is the one that discharges.
			k.Trace(comps.life, trace.KindBind, nil)
		})
	} else {
		sk.Offer()
		k.Trace(comps.life, trace.KindBind, nil)
	}

	// Local noise sink: dense intra-platform load, hashed into the
	// report so all modes must schedule it identically. A world without
	// noise binds none, and its hash stays at the FNV offset.
	if rows[i].NoiseHash == 0 {
		rows[i].NoiseHash = fnvOffset
	}
	if spec.NoiseEvents == 0 {
		return rt, nil
	}
	sink := host.MustBind(NoisePort)
	sink.OnReceive(func(dg simnet.Datagram) {
		h := rows[i].NoiseHash
		h = fnvMix(h, uint64(dg.SentAt))
		h = fnvMix(h, uint64(k.Now()))
		h = fnvMix(h, uint64(binary.BigEndian.Uint32(dg.Payload)))
		rows[i].NoiseHash = h
		// Noise deliveries are traced so the trace covers the local load
		// the report hashes. Its timing is a fixed NoiseInterval period,
		// not a seeded draw: noise does not vary with the seed.
		k.Trace(comps.noise, trace.KindNoise, dg.Payload)
	})
	return rt, nil
}

// spawnClient starts platform i's client process: `rounds` call rounds
// over its topology targets, folding every response — and every
// observable failure — into the platform's stats. If the platform
// crashes, the client exits at the first call it observes the outage
// on (a dead process issues nothing); the crash plan's reborn client
// picks up after the restart. marker distinguishes incarnations in the
// hash.
func (w *World) spawnClient(rt *ara.Runtime, i, rounds int, marker uint64) {
	spec := w.Spec
	rows := w.Stats
	host := w.Hosts[i]

	// Static peer configuration (the federation has no cross-partition
	// service discovery, mirroring the UDP deployment path).
	targets := w.Edges[i]
	proxies := make([]*ara.Proxy, 0, len(targets))
	for _, j := range targets {
		proxies = append(proxies, rt.StaticProxy(w.ifaces[j], 1,
			simnet.Addr{Host: w.Hosts[j].ID(), Port: Port}))
	}

	// Deterministic per-client skew keeps request arrivals at any
	// server from colliding at identical timestamps, where single- and
	// multi-kernel tie-breaking could legitimately differ. The timeout
	// gets the same treatment so expiry events never tie across
	// platforms either.
	phase := logical.Duration(i)*977*logical.Microsecond + logical.Duration(i)*13
	gap := spec.Gap + logical.Duration(i)*1013
	timeout := spec.CallTimeout
	if timeout > 0 {
		timeout += logical.Duration(i) * 131
	}

	if rows[i].RespHash == 0 {
		rows[i].RespHash = fnvOffset
	}
	k := rt.Kernel()
	client := w.comps[i].client
	rt.Spawn("client", func(c *ara.Ctx) {
		c.Exec(phase)
		var req [12]byte
		for round := 0; round < rounds; round++ {
			if host.Down() {
				// The platform died under us: record the exit and stop —
				// a crashed process issues no further calls.
				rows[i].RespHash = fnvMix(rows[i].RespHash, 0xc0a5)
				return
			}
			for t, px := range proxies {
				binary.BigEndian.PutUint16(req[0:], uint16(i))
				binary.BigEndian.PutUint16(req[2:], uint16(targets[t]))
				binary.BigEndian.PutUint32(req[4:], uint32(round))
				binary.BigEndian.PutUint32(req[8:], uint32(t))
				// The request-issue record opens the responded-within
				// obligation its later call/call-err record discharges —
				// same component, so the pairing is mode-independent.
				k.Trace(client, trace.KindReq, req[:])
				t0 := c.Now()
				fut := px.Call("compute", req[:])
				var resp []byte
				var err error
				if timeout > 0 {
					resp, err = fut.GetTimeout(c.Process(), timeout)
				} else {
					resp, err = fut.Get(c.Process())
				}
				if err != nil {
					// Observable, never silent: fold the failure — and
					// which call it was — into the report.
					rows[i].Errors++
					h := rows[i].RespHash
					h = fnvMix(h, 0xdead)
					h = fnvMix(h, marker)
					h = fnvMix(h, uint64(targets[t]))
					h = fnvMix(h, uint64(round))
					rows[i].RespHash = h
					k.Trace(client, trace.KindCallErr, req[:])
					continue
				}
				rtt := int64(c.Now() - t0)
				k.Trace(client, trace.KindCall, resp)
				rows[i].Calls++
				h := rows[i].RespHash
				h = fnvMix(h, marker)
				h = fnvMix(h, uint64(targets[t]))
				h = fnvMix(h, binary.BigEndian.Uint64(resp))
				h = fnvMix(h, uint64(rtt))
				rows[i].RespHash = h
				rows[i].LatSumNs += rtt
				if rtt > rows[i].LatMaxNs {
					rows[i].LatMaxNs = rtt
				}
			}
			c.Exec(gap)
		}
	})
}

// Run executes the world to completion and shuts the substrate down.
func (w *World) Run() {
	w.fed.RunAll()
	w.fed.Shutdown()
}

// Verdicts finishes the per-kernel monitor engines (flushing pending
// obligations — idempotent, so repeated calls return the same result)
// and merges their verdicts into the mode-independent whole. It
// returns nil when the spec has no monitors block. Call it after Run.
func (w *World) Verdicts() []monitor.Verdict {
	if len(w.engines) == 0 {
		return nil
	}
	if !w.monitorsDone {
		w.monitorsDone = true
		for _, e := range w.engines {
			e.Finish()
		}
	}
	groups := make([][]monitor.Verdict, len(w.engines))
	for i, e := range w.engines {
		groups[i] = e.Verdicts()
	}
	return monitor.MergeVerdicts(groups...)
}

// Trace merges the per-kernel recorders into the canonical logical
// event trace of the run. The trace is mode-independent: byte-
// identical (after encoding) for every partition count and GOMAXPROCS
// value, like the canonical report — the trace property tests pin
// this. Call it after Run.
func (w *World) Trace() *trace.Trace {
	return trace.Merge(w.recorders...)
}

// TraceOverflow returns an error naming the first partition whose trace
// ring evicted records, with the ring's capacity estimate, or nil when
// every ring held its partition's whole stream. A truncated trace is
// mode-dependent, so no gate may compare one. Call it after Run.
func (w *World) TraceOverflow() error {
	for i, rec := range w.recorders {
		if n := rec.Dropped(); n != 0 {
			return fmt.Errorf("scenario: partition %d of %d evicted %d trace records: its ring capacity estimate of %d records is too small",
				i, len(w.recorders), n, w.traceCapacityPartition(i, len(w.recorders)))
		}
	}
	return nil
}

// Partitions returns the number of partition kernels executing the
// world.
func (w *World) Partitions() int { return w.fed.Partitions() }

// CoordRounds returns the federation's coordination-round count (zero
// for one partition). Mode-dependent — never part of canonical reports.
func (w *World) CoordRounds() uint64 { return w.fed.Rounds() }

// CoordGrants returns the federation's total dispatched-window count
// (zero for one partition). Mode- and schedule-dependent — never part
// of canonical reports.
func (w *World) CoordGrants() uint64 { return w.fed.Grants() }

// CoordParkedNs returns cumulative wall-clock nanoseconds partitions
// with pending work spent parked between windows (zero for one
// partition) — the observable sync tax. Machine-dependent.
func (w *World) CoordParkedNs() int64 { return w.fed.ParkedNs() }

// EventsFired returns the total kernel events executed. Mode-dependent.
func (w *World) EventsFired() uint64 { return w.fed.EventsFired() }

// Delivered returns the substrate's delivered-datagram count.
// Mode-dependent (SD multicast fan-out is per-partition).
func (w *World) Delivered() uint64 { return w.cluster.Delivered() }

// Dropped returns the substrate's dropped-datagram count.
// Mode-dependent.
func (w *World) Dropped() uint64 { return w.cluster.Dropped() }

// ControlPlane returns the substrate's control-plane counters (see
// simnet.Network.ControlPlane): multicast/topic send calls and their
// total fan-out. With interest-based SD routing the fan-out grows with
// declared interest rather than platforms², which is what the
// city-scale acceptance gate measures. Mode-dependent (fan-out is
// per-partition).
func (w *World) ControlPlane() (sends, fanout uint64) { return w.cluster.ControlPlane() }
