// Package scenario is the declarative layer under every simulated
// experiment: a Spec describes a deployment — platform count, topology
// shape, partition assignment, link model, fault plan, workload mix,
// seed policy — and Build compiles it into a runnable world (kernel or
// federation, network or cluster, hosts, ara runtimes, client/server
// processes). Experiments become thin Spec constructors plus
// measurement code, and a deployment that was never compiled into the
// binary can run from a JSON file (cmd/experiments -scenario).
//
// Build compiles the client/server compute-mesh family (E10, E11,
// E12, E14, JSON scenarios): every platform offers a "compute" service
// and runs one client whose call targets come from the topology
// generator. The brake-assistant case study (internal/apd) builds its
// own substrate and does not go through this package.
//
// Determinism contract: for a fixed Spec, the world's behaviour is a
// pure function of Spec.Seed, identical for every Partitions value and
// GOMAXPROCS setting (the E10/E11/E12 gates pin this byte-for-byte).
// Describe renders a canonical, mode-independent description of the
// compiled world — it deliberately excludes the partition count and
// anything else that only selects an execution mode.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/simnet"
)

// Shape names a topology generator. All generators are pure functions
// of (shape, platform count, degree, seed); see Topology.
type Shape string

// The supported topology shapes.
const (
	// Full connects every client to every other platform (a ring of
	// degree n-1).
	Full Shape = "full"
	// Ring connects client i to its Degree successors (i+1 .. i+Degree,
	// modulo n) — the classic E10 mesh shape.
	Ring Shape = "ring"
	// Star routes all leaf clients to platform 0; platform 0's client
	// calls every leaf.
	Star Shape = "star"
	// Tree arranges platforms as a Degree-ary heap: each client calls
	// its parent and its children.
	Tree Shape = "tree"
	// RandomRegular gives every client Degree distinct targets drawn as
	// a pure function of the spec seed via des.Mix3 (a seeded k-out
	// regular digraph).
	RandomRegular Shape = "random-regular"
)

// Shapes lists every supported topology shape in canonical sweep order.
var Shapes = []Shape{Star, Ring, Tree, RandomRegular}

// CrashPlan schedules a platform crash (and optional restart) inside a
// compiled world: the platform's host fails at At (endpoints close,
// in-flight packets drop, its client exits when it observes the
// outage) and — if RestartAt > At — comes back with a rebuilt runtime
// whose skeleton re-offers, after which a reborn client issues
// RebornRounds more call rounds. All times are simulated, so the
// schedule is identical in every execution mode.
type CrashPlan struct {
	// Platform indexes the platform to crash.
	Platform int `json:"platform"`
	// At is the crash instant.
	At logical.Time `json:"atNs"`
	// RestartAt is the restart instant; zero (or ≤ At) means the
	// platform stays down.
	RestartAt logical.Time `json:"restartAtNs,omitempty"`
	// RebornRounds is the number of call rounds the restarted
	// platform's client runs.
	RebornRounds int `json:"rebornRounds,omitempty"`
}

// Spec is the declarative description of a client/server scenario. It
// serializes to/from JSON (durations are nanosecond integers), so a
// deployment can be described in a file and run without recompiling.
// The zero values of Topology, Degree, Partitions and Gap-class fields
// are normalized to the E10 mesh defaults; Platforms and LinkLatency
// must be set explicitly.
type Spec struct {
	// Name labels the scenario; it prefixes the canonical report header
	// of generic scenario runs. Empty selects the legacy E10 header.
	Name string `json:"name,omitempty"`
	// Platforms is N, the number of simulated ECUs. Must be ≥ 2.
	Platforms int `json:"platforms"`
	// Topology selects the call-graph generator; empty means Ring.
	Topology Shape `json:"topology,omitempty"`
	// Degree parameterizes the shape: ring neighbor count, tree fan-out,
	// random-regular out-degree (capped at Platforms-1; 0 means
	// min(3, Platforms-1), the E10 default).
	Degree int `json:"degree,omitempty"`
	// Partitions is the execution-mode default: the platforms are
	// sharded round-robin over that many federated kernels (≤ 1 means
	// one, the single-kernel run; capped at Platforms). Excluded from
	// Describe — it must not change behaviour.
	Partitions int `json:"partitions,omitempty"`
	// Seed drives every random stream of the world.
	Seed uint64 `json:"seed,omitempty"`
	// Rounds is the number of call rounds per client; each round issues
	// one blocking call per topology target.
	Rounds int `json:"rounds,omitempty"`
	// Gap is the base think time between rounds (each client adds a
	// deterministic per-client skew so request arrivals never collide).
	Gap logical.Duration `json:"gapNs,omitempty"`
	// WorkBase/WorkSpread model the server's execution time: base plus
	// a payload-hash-dependent spread, so timing is data-dependent but
	// identical in both execution modes.
	WorkBase logical.Duration `json:"workBaseNs,omitempty"`
	// WorkSpread is the data-dependent part of the server time model.
	WorkSpread logical.Duration `json:"workSpreadNs,omitempty"`
	// NoiseEvents drives the per-platform local load generator
	// (loopback datagrams on the platform's own host); 0 disables it.
	NoiseEvents int `json:"noiseEvents,omitempty"`
	// NoiseInterval is the local load generator's send period.
	NoiseInterval logical.Duration `json:"noiseIntervalNs,omitempty"`
	// LinkLatency is the fixed platform-to-platform latency. It must be
	// positive and RNG-free: its minimum is the federation lookahead.
	LinkLatency logical.Duration `json:"linkLatencyNs"`
	// SwitchDelay is the store-and-forward delay added to
	// inter-platform packets.
	SwitchDelay logical.Duration `json:"switchDelayNs,omitempty"`
	// CallTimeout (optional) bounds every client call; expiry is
	// counted as an observable error in the report. Required when
	// Faults can drop packets or Crash is set — without it a lost call
	// would park its client forever.
	CallTimeout logical.Duration `json:"callTimeoutNs,omitempty"`
	// Faults (optional) installs a deterministic fault schedule:
	// counter-based per-link loss, partitions and jitter bursts.
	Faults *simnet.FaultPlan `json:"faults,omitempty"`
	// Crash (optional) schedules a platform crash and restart.
	Crash *CrashPlan `json:"crash,omitempty"`
	// Monitors (optional) attaches online runtime-verification
	// monitors from the standard safety library to every kernel of the
	// compiled world (see internal/monitor). Verdicts are
	// mode-independent and surface through World.Verdicts.
	Monitors *MonitorSpec `json:"monitors,omitempty"`
}

// MonitorSpec is the declarative monitors block of a Spec: which of
// the standard safety properties to evaluate online, and with what
// deadlines. A zero deadline disables that monitor; an all-zero block
// normalizes to nil (no monitoring). DefaultMonitors derives deadlines
// from the spec's own timing parameters.
type MonitorSpec struct {
	// NoSilentCorruption enables the "no silent corruption ever"
	// monitor: the corrupt-input sentinel must never appear.
	NoSilentCorruption bool `json:"noSilentCorruption,omitempty"`
	// RespondedWithin is the "answered-or-observably-timed-out" bound:
	// every issued request must complete (or fail observably) within
	// this deadline. Zero disables the monitor.
	RespondedWithin logical.Duration `json:"respondedWithinNs,omitempty"`
	// ReboundWithin is the "re-bind within T of restart" bound: a
	// restarted platform must re-offer its service within this
	// deadline. Zero disables the monitor.
	ReboundWithin logical.Duration `json:"reboundWithinNs,omitempty"`
}

// enabled reports whether any monitor is switched on.
func (m *MonitorSpec) enabled() bool {
	return m.NoSilentCorruption || m.RespondedWithin > 0 || m.ReboundWithin > 0
}

// Build instantiates fresh monitor instances for one engine. Monitors
// are stateful, so every kernel's engine needs its own Build call.
func (m *MonitorSpec) Build() []monitor.Monitor {
	var out []monitor.Monitor
	if m.NoSilentCorruption {
		out = append(out, monitor.NoSilentCorruption())
	}
	if m.RespondedWithin > 0 {
		out = append(out, monitor.RespondedWithin(m.RespondedWithin))
	}
	if m.ReboundWithin > 0 {
		out = append(out, monitor.ReboundWithin(m.ReboundWithin))
	}
	return out
}

// DefaultMonitors returns the standard safety library with deadlines
// derived from the spec's own timing model — the block the
// cmd/experiments -monitors flag attaches to any scenario. The
// responded-within bound allows the full timeout (when one is set)
// plus one round trip of slack; without a timeout every call resolves
// by completion, so the bound is a generous multiple of the worst-case
// serialized round trip. The rebound bound covers a restart's re-offer
// latency (immediate in compiled worlds, so one round trip of slack).
func DefaultMonitors(s Spec) *MonitorSpec {
	n, err := s.normalized()
	if err != nil {
		n = s
	}
	perCall := 2*(n.LinkLatency+n.SwitchDelay) + n.WorkBase + n.WorkSpread
	respond := 8 * logical.Duration(n.Platforms) * perCall
	if n.CallTimeout > 0 {
		respond = 2*n.CallTimeout + perCall
	}
	return &MonitorSpec{
		NoSilentCorruption: true,
		RespondedWithin:    respond,
		ReboundWithin:      2 * (n.LinkLatency + n.SwitchDelay),
	}
}

// MeshPreset returns the E10 mesh scenario for n platforms: a ring of
// degree min(3, n-1) with the workload mix of DefaultMeshConfig.
func MeshPreset(n int) Spec {
	k := 3
	if k > n-1 {
		k = n - 1
	}
	return Spec{
		Platforms:     n,
		Topology:      Ring,
		Degree:        k,
		Rounds:        20,
		Gap:           800 * logical.Microsecond,
		WorkBase:      20 * logical.Microsecond,
		WorkSpread:    120 * logical.Microsecond,
		NoiseEvents:   400,
		NoiseInterval: 50 * logical.Microsecond,
		LinkLatency:   350 * logical.Microsecond,
		SwitchDelay:   20 * logical.Microsecond,
	}
}

// CityPreset returns the E14 city-scale scenario for n platforms: a
// ring of degree min(3, n-1) with a lean workload mix sized so that
// thousands of platforms stay tractable under the byte-equality gate.
// Against MeshPreset it drops the local-noise generator (its event
// count is what dominates at scale, without adding cross-platform
// interaction) and trims the round count; every remaining statistic in
// the canonical report is a fixed-size per-platform fold, so report
// memory is O(platforms) no matter how many messages flow.
func CityPreset(n int) Spec {
	k := 3
	if k > n-1 {
		k = n - 1
	}
	return Spec{
		Name:        "city",
		Platforms:   n,
		Topology:    Ring,
		Degree:      k,
		Rounds:      4,
		Gap:         500 * logical.Microsecond,
		WorkBase:    10 * logical.Microsecond,
		WorkSpread:  40 * logical.Microsecond,
		LinkLatency: 200 * logical.Microsecond,
		SwitchDelay: 10 * logical.Microsecond,
	}
}

// TopologyPreset returns the E12 sweep scenario: the E10 workload mix
// on the given topology shape.
func TopologyPreset(shape Shape, n int) Spec {
	s := MeshPreset(n)
	s.Name = "topo-" + string(shape)
	s.Topology = shape
	return s
}

// maxCallEdges bounds a spec's call graph: every client→server edge
// gets a proxy and a line of Describe. It admits a full topology of
// 1024 platforms and a degree-3 ring at the platform cap.
const maxCallEdges = 1 << 20

// maxTraceRecords bounds the trace ring slots Build preallocates for a
// spec: the per-partition bounds of traceCapacityPartition, summed over
// partitions, are rounds·3·edges call records (rounds including a
// crash plan's RebornRounds) plus platforms·(noise+1) bind and noise
// records. 1<<24 slots of 32 bytes are 512 MiB.
const maxTraceRecords = 1 << 24

// ParseSpec decodes a JSON scenario description. Unknown fields are
// rejected so that a typo in a spec file fails loudly instead of
// silently running the default value.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return s, nil
}

// MarshalJSONSpec encodes the spec as indented JSON, the format of the
// files under examples/scenarios/.
func MarshalJSONSpec(s Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// normalized returns a copy with defaults filled, the shape parameters
// capped and behaviour-free residue canonicalized, or an error when the
// spec is invalid. Every compiler entry point and Describe go through
// it, so a spec and its JSON round trip always compile to the same
// world.
func (s Spec) normalized() (Spec, error) {
	if s.Platforms < 2 {
		return s, fmt.Errorf("scenario: needs at least 2 platforms")
	}
	// Platform i is host HostID(i) = i+1, and host IDs from
	// simnet.MulticastBase up address multicast groups.
	if max := int(simnet.MulticastBase) - 1; s.Platforms > max {
		return s, fmt.Errorf("scenario: %d platforms exceed the %d host IDs below the multicast range", s.Platforms, max)
	}
	if s.Topology == "" {
		s.Topology = Ring
	}
	switch s.Topology {
	case Full, Ring, Star, Tree, RandomRegular:
	default:
		return s, fmt.Errorf("scenario: unknown topology shape %q", s.Topology)
	}
	if s.Degree <= 0 {
		s.Degree = 3
	}
	if s.Degree > s.Platforms-1 {
		s.Degree = s.Platforms - 1
	}
	// The call graph is built, and described, edge by edge: bound it so
	// a spec file cannot make Describe or Build exhaust memory.
	edges := 2 * s.Platforms // star and tree: at most two per platform
	switch s.Topology {
	case Full:
		edges = s.Platforms * (s.Platforms - 1)
	case Ring, RandomRegular:
		edges = s.Platforms * s.Degree
	}
	if edges > maxCallEdges {
		return s, fmt.Errorf("scenario: %s topology of %d platforms has %d call edges, more than %d", s.Topology, s.Platforms, edges, maxCallEdges)
	}
	if s.Partitions < 1 {
		s.Partitions = 1
	}
	if s.Partitions > s.Platforms {
		s.Partitions = s.Platforms
	}
	if s.LinkLatency <= 0 {
		return s, fmt.Errorf("scenario: needs positive link latency (it is the federation lookahead)")
	}
	// Negative scalars have no meaning anywhere in the compiled world (a
	// negative duration would run the kernel backwards); reject them all
	// so generated and hand-written specs fail identically and loudly.
	if s.Rounds < 0 {
		return s, fmt.Errorf("scenario: negative rounds %d", s.Rounds)
	}
	if s.NoiseEvents < 0 {
		return s, fmt.Errorf("scenario: negative noise events %d", s.NoiseEvents)
	}
	for _, d := range []struct {
		name string
		v    logical.Duration
	}{
		{"gapNs", s.Gap}, {"workBaseNs", s.WorkBase}, {"workSpreadNs", s.WorkSpread},
		{"noiseIntervalNs", s.NoiseInterval}, {"switchDelayNs", s.SwitchDelay},
		{"callTimeoutNs", s.CallTimeout},
	} {
		if d.v < 0 {
			return s, fmt.Errorf("scenario: negative %s (%d)", d.name, int64(d.v))
		}
	}
	// Canonicalize behaviour-free residue so that Describe equality and
	// behavioural equality coincide in both directions: a disabled noise
	// generator has no interval, and a crash that never restarts has no
	// restart time or reborn rounds.
	if s.NoiseEvents == 0 {
		s.NoiseInterval = 0
	}
	if s.Faults != nil {
		// Surface fault-plan mistakes here, so Describe and every
		// compiler entry point reject a bad JSON spec loudly and alike.
		if err := s.Faults.Validate(); err != nil {
			return s, err
		}
	}
	if c := s.Crash; c != nil {
		if c.Platform < 0 || c.Platform >= s.Platforms {
			return s, fmt.Errorf("scenario: crash platform %d out of range", c.Platform)
		}
		if c.At < 0 {
			return s, fmt.Errorf("scenario: negative crash time %d", int64(c.At))
		}
		if c.RebornRounds < 0 {
			return s, fmt.Errorf("scenario: negative reborn rounds %d", c.RebornRounds)
		}
		if c.RestartAt <= c.At && (c.RestartAt != 0 || c.RebornRounds != 0) {
			// "Never restarts" has one canonical spelling. Copy before
			// editing: the caller's plan is shared, not owned.
			cp := *c
			cp.RestartAt, cp.RebornRounds = 0, 0
			s.Crash = &cp
		}
	}
	// Build preallocates every partition's trace ring: bound the summed
	// ring sizes so a spec file cannot make Build exhaust memory. Each
	// product is checked against the budget before it is formed, so
	// none overflows.
	budget := maxTraceRecords
	rounds := s.Rounds
	if s.Crash != nil {
		if s.Crash.RebornRounds > budget-rounds {
			return s, fmt.Errorf("scenario: %d rounds and %d reborn rounds need more than %d trace records", rounds, s.Crash.RebornRounds, maxTraceRecords)
		}
		rounds += s.Crash.RebornRounds
	}
	if rounds > budget/(3*edges) {
		return s, fmt.Errorf("scenario: %d rounds over %d call edges need more than %d trace records", rounds, edges, maxTraceRecords)
	}
	budget -= 3 * rounds * edges
	if s.NoiseEvents >= budget/s.Platforms {
		return s, fmt.Errorf("scenario: %d noise events on %d platforms need more than %d trace records", s.NoiseEvents, s.Platforms, maxTraceRecords)
	}
	if m := s.Monitors; m != nil {
		if m.RespondedWithin < 0 {
			return s, fmt.Errorf("scenario: negative respondedWithinNs (%d)", int64(m.RespondedWithin))
		}
		if m.ReboundWithin < 0 {
			return s, fmt.Errorf("scenario: negative reboundWithinNs (%d)", int64(m.ReboundWithin))
		}
		if !m.enabled() {
			// An all-zero monitors block enables nothing: canonicalize the
			// residue away so Describe equality and behavioural equality
			// keep coinciding.
			s.Monitors = nil
		}
	}
	if s.CallTimeout <= 0 {
		// Without a timeout a lost request or response would park its
		// client process forever and the run would end with silently
		// missing calls — enforce the documented precondition.
		if s.Crash != nil {
			return s, fmt.Errorf("scenario: a crash plan requires CallTimeout > 0 (calls into the outage must fail observably)")
		}
		if f := s.Faults; f != nil && (f.DropRate > 0 || len(f.Loss) > 0 || len(f.Partitions) > 0) {
			return s, fmt.Errorf("scenario: a fault plan that can drop packets requires CallTimeout > 0")
		}
	}
	return s, nil
}

// Normalized returns the canonical form of the spec — defaults filled,
// shape parameters capped, behaviour-free residue zeroed — or an error
// when the spec is invalid. It is the exact form Build compiles and
// Describe renders; tools that edit specs programmatically (the
// determinism fuzzer's reduction moves) re-normalize after every edit
// so a candidate is always a spec a user could have written.
func (s Spec) Normalized() (Spec, error) {
	return s.normalized()
}

// Describe renders the canonical, mode-independent description of the
// world the spec compiles to: name, shape, link and workload
// parameters, fault schedule summary and the full client→server call
// graph. Two specs that describe identically compile to behaviourally
// identical worlds; the golden tests pin the string per topology
// shape. Partition count is deliberately excluded — it selects an
// execution mode and must not change behaviour.
func Describe(s Spec) (string, error) {
	n, err := s.normalized()
	if err != nil {
		return "", err
	}
	edges, err := Topology(n.Topology, n.Platforms, n.Degree, n.Seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	name := n.Name
	if name == "" {
		name = "mesh"
	}
	fmt.Fprintf(&b, "scenario %s topology=%s platforms=%d degree=%d seed=%d\n",
		name, n.Topology, n.Platforms, n.Degree, n.Seed)
	fmt.Fprintf(&b, "link latencyNs=%d switchDelayNs=%d callTimeoutNs=%d\n",
		int64(n.LinkLatency), int64(n.SwitchDelay), int64(n.CallTimeout))
	fmt.Fprintf(&b, "workload rounds=%d gapNs=%d workBaseNs=%d workSpreadNs=%d noise=%d@%dns\n",
		n.Rounds, int64(n.Gap), int64(n.WorkBase), int64(n.WorkSpread),
		n.NoiseEvents, int64(n.NoiseInterval))
	if f := n.Faults; f != nil {
		// The full schedule, not a summary: Describe equality must imply
		// behavioural equality, and every window parameter is behaviour.
		fmt.Fprintf(&b, "faults seed=%d drop=%.6f\n", f.Seed, f.DropRate)
		for _, w := range f.Loss {
			fmt.Fprintf(&b, "  loss fromNs=%d toNs=%d a=%d b=%d rate=%.6f\n",
				int64(w.From), int64(w.To), w.A, w.B, w.Rate)
		}
		for _, w := range f.Partitions {
			fmt.Fprintf(&b, "  partition fromNs=%d toNs=%d groupA=%v groupB=%v\n",
				int64(w.From), int64(w.To), w.GroupA, w.GroupB)
		}
		for _, w := range f.Jitter {
			fmt.Fprintf(&b, "  jitter fromNs=%d toNs=%d a=%d b=%d extraNs=%d\n",
				int64(w.From), int64(w.To), w.A, w.B, int64(w.Extra))
		}
	} else {
		b.WriteString("faults none\n")
	}
	if c := n.Crash; c != nil {
		fmt.Fprintf(&b, "crash platform=%d atNs=%d restartAtNs=%d rebornRounds=%d\n",
			c.Platform, int64(c.At), int64(c.RestartAt), c.RebornRounds)
	} else {
		b.WriteString("crash none\n")
	}
	if m := n.Monitors; m != nil {
		// Rendered only when a block is present: monitors observe the run
		// (their verdicts are diagnostics, not behaviour), but which
		// properties a spec *demands* is part of its meaning — and
		// monitor-free specs keep their golden Describe strings.
		fmt.Fprintf(&b, "monitors corruption=%v respondedWithinNs=%d reboundWithinNs=%d\n",
			m.NoSilentCorruption, int64(m.RespondedWithin), int64(m.ReboundWithin))
	}
	for i, targets := range edges {
		fmt.Fprintf(&b, "plat%02d compute@%d ->", i, Port)
		for _, j := range targets {
			fmt.Fprintf(&b, " %02d", j)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// PlatformStats is the per-platform slice of a scenario run's canonical
// report: every observable outcome of the platform's client and server,
// folded into order-sensitive hashes so two runs agree on *which* calls
// happened (and failed), not just how many.
type PlatformStats struct {
	// Calls counts completed client calls.
	Calls int
	// Served counts compute invocations handled by this platform.
	Served int
	// Errors counts observable call failures (timeouts, send errors);
	// zero in fault-free scenarios. Every error is also folded into
	// RespHash, so two runs agree on which calls failed.
	Errors int
	// RespHash folds every response (and failure) into an FNV chain.
	RespHash uint64
	// LatSumNs accumulates round-trip latency.
	LatSumNs int64
	// LatMaxNs tracks the worst round trip.
	LatMaxNs int64
	// NoiseHash folds the local load generator's deliveries.
	NoiseHash uint64
}

// LatMeanNs returns the integer mean round-trip latency (exact — no
// floating point, so reports are byte-stable).
func (r *PlatformStats) LatMeanNs() int64 {
	if r.Calls == 0 {
		return 0
	}
	return r.LatSumNs / int64(r.Calls)
}

// StatsReport renders the canonical per-platform report body: one line
// per platform plus a totals line. Experiments prepend their header;
// two runs are behaviourally identical iff their full reports are
// byte-identical.
func StatsReport(rows []PlatformStats) string {
	var b strings.Builder
	// A row is about 115 bytes (two 16-digit hashes and five counters);
	// sizing the buffer once keeps a 5000-row report from doubling its
	// way up. Digits are appended into num and copied into b, so no
	// integer is boxed as fmt would.
	b.Grow(128*len(rows) + 64)
	var num [20]byte
	dec := func(label string, v int64) {
		b.WriteString(label)
		b.Write(strconv.AppendInt(num[:0], v, 10))
	}
	hex := func(label string, v uint64) {
		b.WriteString(label)
		d := strconv.AppendUint(num[:0], v, 16)
		b.WriteString("0000000000000000"[len(d):])
		b.Write(d)
	}
	totalCalls, totalServed, totalErrors := 0, 0, 0
	for i, row := range rows {
		if i < 10 {
			dec("plat0", int64(i))
		} else {
			dec("plat", int64(i))
		}
		dec(" calls=", int64(row.Calls))
		dec(" served=", int64(row.Served))
		dec(" errs=", int64(row.Errors))
		hex(" resp=", row.RespHash)
		dec(" latMeanNs=", row.LatMeanNs())
		dec(" latMaxNs=", row.LatMaxNs)
		hex(" noise=", row.NoiseHash)
		b.WriteByte('\n')
		totalCalls += row.Calls
		totalServed += row.Served
		totalErrors += row.Errors
	}
	dec("total calls=", int64(totalCalls))
	dec(" served=", int64(totalServed))
	dec(" errs=", int64(totalErrors))
	b.WriteByte('\n')
	return b.String()
}
