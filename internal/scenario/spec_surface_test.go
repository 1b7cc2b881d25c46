package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/simnet"
)

// validSpec returns a spec that exercises every optional feature —
// faults, crash+restart, noise, timeout — and validates. The rejection
// and mutation tables below each break exactly one thing.
func validSpec() Spec {
	s := MeshPreset(6)
	s.Name = "surface"
	s.Seed = 5
	s.CallTimeout = 5 * logical.Millisecond
	s.Faults = &simnet.FaultPlan{
		Seed:     9,
		DropRate: 0.01,
		Loss:     []simnet.LossWindow{{From: 1000, To: 2000, Rate: 0.5}},
		Partitions: []simnet.PartitionWindow{{
			From: 3000, To: 4000, GroupA: []uint16{1, 2},
		}},
		Jitter: []simnet.JitterBurst{{From: 0, To: 500, Extra: 300}},
	}
	s.Crash = &CrashPlan{Platform: 1, At: logical.Time(logical.Millisecond),
		RestartAt: logical.Time(2 * logical.Millisecond), RebornRounds: 2}
	s.Monitors = &MonitorSpec{
		NoSilentCorruption: true,
		RespondedWithin:    20 * logical.Millisecond,
		ReboundWithin:      4 * logical.Millisecond,
	}
	return s
}

// TestSpecRejectionMatrix walks every rejection path of normalized():
// each case mutates one field of a fully valid spec and must fail with
// the documented message. Together with TestSpecValidation this pins
// the full refusal surface — a generated spec and a hand-written one
// fail identically.
func TestSpecRejectionMatrix(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero platforms", func(s *Spec) { s.Platforms = 0 }, "at least 2 platforms"},
		{"negative platforms", func(s *Spec) { s.Platforms = -4 }, "at least 2 platforms"},
		{"negative link latency", func(s *Spec) { s.LinkLatency = -1 }, "positive link latency"},
		{"full call graph past the edge bound", func(s *Spec) { s.Platforms, s.Topology = 1025, Full }, "call edges"},
		{"ring call graph past the edge bound", func(s *Spec) { s.Platforms, s.Degree = 60000, 20 }, "call edges"},
		{"negative rounds", func(s *Spec) { s.Rounds = -1 }, "negative rounds"},
		{"negative noise events", func(s *Spec) { s.NoiseEvents = -1 }, "negative noise events"},
		{"negative gap", func(s *Spec) { s.Gap = -1 }, "negative gapNs"},
		{"negative work base", func(s *Spec) { s.WorkBase = -1 }, "negative workBaseNs"},
		{"negative work spread", func(s *Spec) { s.WorkSpread = -1 }, "negative workSpreadNs"},
		{"negative noise interval", func(s *Spec) { s.NoiseInterval = -1 }, "negative noiseIntervalNs"},
		{"negative switch delay", func(s *Spec) { s.SwitchDelay = -1 }, "negative switchDelayNs"},
		{"negative call timeout", func(s *Spec) { s.CallTimeout = -1 }, "negative callTimeoutNs"},
		{"negative crash platform", func(s *Spec) { s.Crash.Platform = -1 }, "out of range"},
		{"crash platform past last", func(s *Spec) { s.Crash.Platform = s.Platforms }, "out of range"},
		{"negative crash time", func(s *Spec) { s.Crash.At = -1 }, "negative crash time"},
		{"negative reborn rounds", func(s *Spec) { s.Crash.RebornRounds = -1 }, "negative reborn rounds"},
		{"crash without timeout", func(s *Spec) { s.CallTimeout = 0; s.Faults = nil }, "CallTimeout"},
		{"loss window without timeout", func(s *Spec) {
			s.CallTimeout, s.Crash = 0, nil
			s.Faults = &simnet.FaultPlan{Loss: []simnet.LossWindow{{From: 0, To: 1, Rate: 1}}}
		}, "CallTimeout"},
		{"partition window without timeout", func(s *Spec) {
			s.CallTimeout, s.Crash = 0, nil
			s.Faults = &simnet.FaultPlan{Partitions: []simnet.PartitionWindow{{From: 0, To: 1, GroupA: []uint16{1}}}}
		}, "CallTimeout"},
		{"fault drop rate above one", func(s *Spec) { s.Faults.DropRate = 1.5 }, "outside [0,1]"},
		{"negative responded-within", func(s *Spec) { s.Monitors.RespondedWithin = -1 }, "negative respondedWithinNs"},
		{"negative rebound-within", func(s *Spec) { s.Monitors.ReboundWithin = -1 }, "negative reboundWithinNs"},
	}
	for _, tc := range cases {
		spec := validSpec()
		// Crash mutations edit through the pointer; give each case its own.
		cp := *spec.Crash
		spec.Crash = &cp
		fp := *spec.Faults
		spec.Faults = &fp
		mp := *spec.Monitors
		spec.Monitors = &mp
		tc.mut(&spec)
		_, err := spec.Normalized()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestNormalizedCanonicalizesResidue pins the behaviour-free-residue
// rules: fields that cannot affect the compiled world are zeroed by
// normalization, so Describe equality and behavioural equality
// coincide in both directions. The caller's nested plans must survive
// untouched — normalized() copies before editing.
func TestNormalizedCanonicalizesResidue(t *testing.T) {
	s := validSpec()
	s.NoiseEvents, s.NoiseInterval = 0, 50*logical.Microsecond
	s.Crash = &CrashPlan{Platform: 1, At: logical.Time(2 * logical.Millisecond),
		RestartAt: logical.Time(logical.Millisecond), RebornRounds: 3} // restart before crash = never restarts
	crashBefore := *s.Crash

	n, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.NoiseInterval != 0 {
		t.Errorf("disabled noise kept interval %d", int64(n.NoiseInterval))
	}
	if n.Crash.RestartAt != 0 || n.Crash.RebornRounds != 0 {
		t.Errorf("no-restart crash kept restart residue: %+v", n.Crash)
	}
	if *s.Crash != crashBefore {
		t.Errorf("normalization mutated the caller's crash plan: %+v", *s.Crash)
	}

	// An all-zero monitors block enables nothing; it must normalize away
	// so a spelled-out "no monitors" and an absent block describe — and
	// behave — identically.
	empty := validSpec()
	empty.Monitors = &MonitorSpec{}
	ne, err := empty.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ne.Monitors != nil {
		t.Errorf("all-zero monitors block survived normalization: %+v", ne.Monitors)
	}

	// The residue rule is exactly what makes these pairs describe
	// identically — they compile to the same world.
	zeroed := s
	zeroed.NoiseInterval = 0
	zeroed.Crash = &CrashPlan{Platform: 1, At: logical.Time(2 * logical.Millisecond)}
	da, err := Describe(s)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Describe(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("behaviour-free residue changed Describe:\n%s\nvs\n%s", da, db)
	}
}

// TestNormalizedFillsDefaults pins the default-fill rules the Spec doc
// comment promises for zero values.
func TestNormalizedFillsDefaults(t *testing.T) {
	n, err := Spec{Platforms: 5, LinkLatency: 1000}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology != Ring {
		t.Errorf("empty topology normalized to %q, want ring", n.Topology)
	}
	if n.Degree != 3 {
		t.Errorf("zero degree normalized to %d, want 3", n.Degree)
	}
	if n.Partitions != 1 {
		t.Errorf("zero partitions normalized to %d, want 1", n.Partitions)
	}
}

// TestNormalizedBoundsTraceRings pins the bound on the trace ring memory
// Build preallocates: a spec whose summed ring estimate exceeds
// maxTraceRecords is rejected before any world is built, near MaxInt
// too, while every preset and every spec file under examples/scenarios
// still normalizes. The bound's formula must match the estimate Build
// sizes the rings with.
func TestNormalizedBoundsTraceRings(t *testing.T) {
	huge := MeshPreset(2)
	huge.Rounds = 1e9
	reborn := validSpec()
	reborn.Crash.RebornRounds = math.MaxInt
	noisy := MeshPreset(2)
	noisy.NoiseEvents = math.MaxInt
	maxRounds := MeshPreset(1024)
	maxRounds.Rounds = math.MaxInt
	for name, spec := range map[string]Spec{"rounds 1e9": huge, "reborn MaxInt": reborn, "noise MaxInt": noisy, "rounds MaxInt": maxRounds} {
		if _, err := spec.Normalized(); err == nil {
			// Building it would try to allocate the rings.
			t.Errorf("%s: normalized, want the trace ring bound to reject it", name)
			continue
		}
		if w, err := Build(spec); err == nil || w != nil {
			t.Errorf("%s: Build returned a world (err %v)", name, err)
		}
	}

	specs := map[string]Spec{
		"mesh-2": MeshPreset(2), "mesh-16": MeshPreset(16), "city-5000": CityPreset(5000),
		"surface": validSpec(), "full-256": TopologyPreset(Full, 256),
	}
	for _, shape := range Shapes {
		specs["topo-"+string(shape)] = TopologyPreset(shape, 64)
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files under examples/scenarios: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		specs[filepath.Base(f)] = spec
	}
	for name, spec := range specs {
		if _, err := spec.Normalized(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	spec := validSpec()
	spec.Partitions = 2
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, e := range w.Edges {
		edges += len(e)
	}
	rounds := spec.Rounds + spec.Crash.RebornRounds
	want := rounds*3*edges + spec.Platforms*(spec.NoiseEvents+1)
	got := 0
	for p := 0; p < spec.Partitions; p++ {
		got += w.traceCapacityPartition(p, spec.Partitions) - 256
	}
	if got != want {
		t.Errorf("summed ring estimate %d, bound formula %d", got, want)
	}
}

// Every preset must round-trip through the JSON codec field-for-field
// unchanged — not just to an equal Describe, but to the identical Spec
// value. This is what lets the fuzzer's emitted repros and the files
// under examples/scenarios/ be exact spellings of in-code presets.
func TestPresetJSONRoundTripExact(t *testing.T) {
	presets := map[string]Spec{
		"mesh-8":  MeshPreset(8),
		"mesh-2":  MeshPreset(2),
		"city":    CityPreset(100),
		"surface": validSpec(),
	}
	for _, shape := range append([]Shape{Full}, Shapes...) {
		presets["topo-"+string(shape)] = TopologyPreset(shape, 6)
	}
	for name, spec := range presets {
		data, err := MarshalJSONSpec(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: spec changed across the JSON codec:\n%+v\nvs\n%+v", name, spec, back)
		}
	}
}

// TestDescribeCoversEveryBehaviourField is the Describe⇔behaviour
// completeness gate: mutating any Spec field other than Partitions in
// a behaviour-changing way must change the canonical description
// (otherwise two behaviourally different worlds would pass the
// E10-style gates as "identical"). Partitions — execution mode, not
// behaviour — must NOT change it. The reflection walk at the end
// forces this table to grow with the struct: adding a Spec field
// without deciding its Describe story fails here.
func TestDescribeCoversEveryBehaviourField(t *testing.T) {
	mutations := map[string]func(*Spec){
		"Name":          func(s *Spec) { s.Name = "renamed" },
		"Platforms":     func(s *Spec) { s.Platforms++ },
		"Topology":      func(s *Spec) { s.Topology = Star },
		"Degree":        func(s *Spec) { s.Degree-- },
		"Seed":          func(s *Spec) { s.Seed++ },
		"Rounds":        func(s *Spec) { s.Rounds++ },
		"Gap":           func(s *Spec) { s.Gap += logical.Microsecond },
		"WorkBase":      func(s *Spec) { s.WorkBase += logical.Microsecond },
		"WorkSpread":    func(s *Spec) { s.WorkSpread += logical.Microsecond },
		"NoiseEvents":   func(s *Spec) { s.NoiseEvents++ },
		"NoiseInterval": func(s *Spec) { s.NoiseInterval += logical.Microsecond },
		"LinkLatency":   func(s *Spec) { s.LinkLatency += logical.Microsecond },
		"SwitchDelay":   func(s *Spec) { s.SwitchDelay += logical.Microsecond },
		"CallTimeout":   func(s *Spec) { s.CallTimeout += logical.Millisecond },
		"Faults":        func(s *Spec) { s.Faults = nil },
		"Crash":         func(s *Spec) { s.Crash = nil },
		"Monitors":      func(s *Spec) { s.Monitors = nil },
	}
	// Nested plans are behaviour too: every fault window parameter and
	// crash field must surface in Describe.
	subMutations := map[string]func(*Spec){
		"Faults.Seed":       func(s *Spec) { s.Faults.Seed++ },
		"Faults.DropRate":   func(s *Spec) { s.Faults.DropRate += 0.1 },
		"Faults.Loss":       func(s *Spec) { s.Faults.Loss[0].Rate = 0.9 },
		"Faults.Partitions": func(s *Spec) { s.Faults.Partitions[0].GroupA = []uint16{3} },
		"Faults.Jitter":     func(s *Spec) { s.Faults.Jitter[0].Extra += 100 },
		"Crash.Platform":    func(s *Spec) { s.Crash.Platform = 2 },
		"Crash.At":          func(s *Spec) { s.Crash.At += logical.Time(logical.Microsecond) },
		"Crash.RestartAt":   func(s *Spec) { s.Crash.RestartAt += logical.Time(logical.Microsecond) },
		"Crash.RebornRounds": func(s *Spec) {
			s.Crash.RebornRounds++
		},
		"Monitors.NoSilentCorruption": func(s *Spec) { s.Monitors.NoSilentCorruption = false },
		"Monitors.RespondedWithin":    func(s *Spec) { s.Monitors.RespondedWithin += logical.Millisecond },
		"Monitors.ReboundWithin":      func(s *Spec) { s.Monitors.ReboundWithin += logical.Millisecond },
	}

	base, err := Describe(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	check := func(field string, mut func(*Spec)) {
		spec := validSpec()
		// Deep-copy the nested plans so a sub-mutation edits this copy only.
		cp := *spec.Crash
		spec.Crash = &cp
		fp := *spec.Faults
		fp.Loss = append([]simnet.LossWindow(nil), fp.Loss...)
		fp.Partitions = append([]simnet.PartitionWindow(nil), fp.Partitions...)
		fp.Jitter = append([]simnet.JitterBurst(nil), fp.Jitter...)
		spec.Faults = &fp
		mp := *spec.Monitors
		spec.Monitors = &mp
		mut(&spec)
		got, err := Describe(spec)
		if err != nil {
			t.Errorf("%s: mutated spec does not describe: %v", field, err)
			return
		}
		if got == base {
			t.Errorf("%s: behaviour-changing mutation left Describe unchanged — the determinism gates would miss it", field)
		}
	}
	for field, mut := range mutations {
		check(field, mut)
	}
	for field, mut := range subMutations {
		check(field, mut)
	}

	// Partitions selects an execution mode; Describe must ignore it.
	modeSpec := validSpec()
	modeSpec.Partitions = 5
	got, err := Describe(modeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("Partitions leaked into Describe — execution mode must not look like behaviour")
	}

	// Completeness: every Spec field is either in the mutation table or
	// is Partitions. A new field lands here until its Describe story —
	// behaviour or mode — is written down.
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Partitions" {
			continue
		}
		if _, ok := mutations[name]; !ok {
			t.Errorf("Spec field %s has no Describe mutation case — add one (or, if it is mode-only, exempt it here deliberately)", name)
		}
	}
}
