package scenario

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logical"
	"repro/internal/simnet"
)

// The spec→world compiler's golden contract: Describe is pinned
// byte-for-byte per topology shape. A diff here means existing worlds
// changed shape — bump deliberately, never accidentally.
func TestDescribeGoldenPerShape(t *testing.T) {
	common := "link latencyNs=350000 switchDelayNs=20000 callTimeoutNs=0\n" +
		"workload rounds=20 gapNs=800000 workBaseNs=20000 workSpreadNs=120000 noise=400@50000ns\n" +
		"faults none\ncrash none\n"
	golden := map[Shape]string{
		Star: "scenario topo-star topology=star platforms=6 degree=3 seed=0\n" + common +
			"plat00 compute@40000 -> 01 02 03 04 05\n" +
			"plat01 compute@40000 -> 00\n" +
			"plat02 compute@40000 -> 00\n" +
			"plat03 compute@40000 -> 00\n" +
			"plat04 compute@40000 -> 00\n" +
			"plat05 compute@40000 -> 00\n",
		Ring: "scenario topo-ring topology=ring platforms=6 degree=3 seed=0\n" + common +
			"plat00 compute@40000 -> 01 02 03\n" +
			"plat01 compute@40000 -> 02 03 04\n" +
			"plat02 compute@40000 -> 03 04 05\n" +
			"plat03 compute@40000 -> 04 05 00\n" +
			"plat04 compute@40000 -> 05 00 01\n" +
			"plat05 compute@40000 -> 00 01 02\n",
		Tree: "scenario topo-tree topology=tree platforms=6 degree=3 seed=0\n" + common +
			"plat00 compute@40000 -> 01 02 03\n" +
			"plat01 compute@40000 -> 00 04 05\n" +
			"plat02 compute@40000 -> 00\n" +
			"plat03 compute@40000 -> 00\n" +
			"plat04 compute@40000 -> 01\n" +
			"plat05 compute@40000 -> 01\n",
		RandomRegular: "scenario topo-random-regular topology=random-regular platforms=6 degree=3 seed=0\n" + common +
			"plat00 compute@40000 -> 05 04 02\n" +
			"plat01 compute@40000 -> 05 02 03\n" +
			"plat02 compute@40000 -> 00 04 01\n" +
			"plat03 compute@40000 -> 02 05 01\n" +
			"plat04 compute@40000 -> 02 03 00\n" +
			"plat05 compute@40000 -> 00 04 01\n",
	}
	for _, shape := range Shapes {
		got, err := Describe(TopologyPreset(shape, 6))
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if got != golden[shape] {
			t.Errorf("%s description drifted:\n--- got ---\n%s--- want ---\n%s", shape, got, golden[shape])
		}
	}
}

// A compiled world must describe exactly as its spec does (Describe is
// a pure function of the normalized spec — building cannot change it).
func TestWorldDescribeMatchesSpecDescribe(t *testing.T) {
	spec := MeshPreset(4)
	spec.Seed = 9
	want, err := Describe(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Describe(w.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("world describe diverged from spec describe:\n%s\nvs\n%s", got, want)
	}
}

// Topology invariants for every shape across sizes, degrees and seeds:
// at least one target per client, no self-calls, no duplicate targets.
func TestTopologyInvariants(t *testing.T) {
	for _, shape := range append([]Shape{Full}, Shapes...) {
		for n := 2; n <= 17; n += 3 {
			for degree := 1; degree <= 4; degree++ {
				if degree > n-1 {
					continue
				}
				for seed := uint64(0); seed < 3; seed++ {
					edges, err := Topology(shape, n, degree, seed)
					if err != nil {
						t.Fatalf("%s n=%d k=%d: %v", shape, n, degree, err)
					}
					if len(edges) != n {
						t.Fatalf("%s n=%d: %d clients", shape, n, len(edges))
					}
					for i, targets := range edges {
						if len(targets) == 0 {
							t.Fatalf("%s n=%d k=%d: client %d has no targets", shape, n, degree, i)
						}
						seen := map[int]bool{}
						for _, j := range targets {
							if j == i {
								t.Fatalf("%s n=%d: client %d targets itself", shape, n, i)
							}
							if j < 0 || j >= n {
								t.Fatalf("%s n=%d: client %d target %d out of range", shape, n, i, j)
							}
							if seen[j] {
								t.Fatalf("%s n=%d: client %d duplicate target %d", shape, n, i, j)
							}
							seen[j] = true
						}
					}
				}
			}
		}
	}
}

// The random-regular generator must be a pure function of the seed —
// and different seeds must yield different graphs for non-trivial
// sizes.
func TestRandomRegularSeeded(t *testing.T) {
	a, err := Topology(RandomRegular, 12, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Topology(RandomRegular, 12, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Topology(RandomRegular, 12, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y [][]int) bool {
		for i := range x {
			if len(x[i]) != len(y[i]) {
				return false
			}
			for t := range x[i] {
				if x[i][t] != y[i][t] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed produced different random-regular graphs")
	}
	if same(a, c) {
		t.Error("different seeds produced identical random-regular graphs")
	}
}

// JSON round-trip property: Spec → JSON → Spec compiles to an
// identical world description, for arbitrary valid specs including
// fault plans and crash schedules.
func TestSpecJSONRoundTripProperty(t *testing.T) {
	shapes := append([]Shape{Full}, Shapes...)
	f := func(nRaw, degRaw, shapeRaw uint8, seed uint64, rounds uint8, withFaults, withCrash bool) bool {
		spec := MeshPreset(2 + int(nRaw%10))
		spec.Name = "prop"
		spec.Topology = shapes[int(shapeRaw)%len(shapes)]
		spec.Degree = 1 + int(degRaw%5)
		spec.Seed = seed
		spec.Rounds = 1 + int(rounds%30)
		if withFaults || withCrash {
			spec.CallTimeout = 5 * logical.Millisecond
		}
		if withFaults {
			spec.Faults = &simnet.FaultPlan{
				Seed:     seed ^ 0xfa,
				DropRate: 0.02,
				Loss:     []simnet.LossWindow{{From: 1000, To: 2000, Rate: 0.5}},
				Partitions: []simnet.PartitionWindow{{
					From: 3000, To: 4000, GroupA: []uint16{1, 2},
				}},
				Jitter: []simnet.JitterBurst{{From: 0, To: 500, Extra: 300}},
			}
		}
		if withCrash {
			spec.Crash = &CrashPlan{Platform: 1, At: 1000, RestartAt: 2000, RebornRounds: 2}
		}
		want, err := Describe(spec)
		if err != nil {
			t.Logf("describe: %v", err)
			return false
		}
		data, err := MarshalJSONSpec(spec)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		got, err := Describe(back)
		if err != nil {
			t.Logf("describe round-tripped: %v", err)
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ParseSpec must reject unknown fields: a typo in a spec file fails
// loudly instead of silently running defaults.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"platforms": 4, "linkLatencyNs": 1000, "neighbours": 2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	spec, err := ParseSpec([]byte(`{"platforms": 4, "linkLatencyNs": 350000}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Normalized(); err != nil {
		t.Fatal(err)
	}
}

// Spec validation errors must be loud and specific.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"one platform", func(s *Spec) { s.Platforms = 1 }, "at least 2 platforms"},
		{"zero link latency", func(s *Spec) { s.LinkLatency = 0 }, "positive link latency"},
		{"unknown shape", func(s *Spec) { s.Topology = "moebius" }, "unknown topology"},
		{"crash out of range", func(s *Spec) {
			s.CallTimeout = logical.Millisecond
			s.Crash = &CrashPlan{Platform: 99, At: 1}
		}, "out of range"},
		{"crash without timeout", func(s *Spec) { s.Crash = &CrashPlan{Platform: 1, At: 1} }, "CallTimeout"},
		{"drops without timeout", func(s *Spec) { s.Faults = &simnet.FaultPlan{DropRate: 0.1} }, "CallTimeout"},
		// An ill-formed fault plan must fail validation here, before
		// any world is built.
		{"invalid fault plan", func(s *Spec) {
			s.CallTimeout = logical.Millisecond
			s.Faults = &simnet.FaultPlan{DropRate: 1.5}
		}, "outside [0,1]"},
	}
	for _, tc := range cases {
		spec := MeshPreset(6)
		tc.mut(&spec)
		_, err := spec.Normalized()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// Platform i is host HostID(i) = i+1, so 65,279 platforms take every
// host ID below simnet.MulticastBase; one more would address a multicast
// group, and past 65,535 the IDs wrap. Normalizing builds no world.
func TestSpecPlatformCap(t *testing.T) {
	spec := CityPreset(int(simnet.MulticastBase) - 1)
	if spec.Platforms != 65279 || HostID(spec.Platforms-1) != simnet.MulticastBase-1 {
		t.Fatalf("cap arithmetic: %d platforms, last host %d", spec.Platforms, HostID(spec.Platforms-1))
	}
	if _, err := spec.Normalized(); err != nil {
		t.Fatalf("%d platforms rejected: %v", spec.Platforms, err)
	}
	for _, n := range []int{65280, 65536, 65537} {
		spec.Platforms = n
		if _, err := spec.Normalized(); err == nil || !strings.Contains(err.Error(), "multicast range") {
			t.Errorf("%d platforms: err = %v, want the multicast-range rejection", n, err)
		}
	}
}

// Compiling and running the same spec twice must be bit-reproducible,
// and normalization must cap the shape parameters.
func TestBuildReproducible(t *testing.T) {
	spec := MeshPreset(4)
	spec.Seed = 3
	spec.Rounds = 4
	spec.NoiseEvents = 40
	run := func() string {
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.Run()
		return StatsReport(w.Stats)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same spec, different bytes:\n%s\nvs\n%s", a, b)
	}
	norm, err := Spec{Platforms: 3, LinkLatency: 1000, Degree: 9, Partitions: 8}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Degree != 2 || norm.Partitions != 3 || norm.Topology != Ring {
		t.Errorf("normalization: %+v", norm)
	}
}
