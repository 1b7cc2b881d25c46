package exp

import (
	"strings"
	"testing"

	"repro/internal/logical"
)

func TestFigure1DistributionShape(t *testing.T) {
	res, err := RunFigure1(1, DefaultFigure1Config(2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2000 {
		t.Errorf("trials = %d", res.Trials)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 2000 {
		t.Errorf("counts sum to %d", total)
	}
	// The paper's qualitative shape: all four outcomes occur; the
	// odd values (1 and 3, where set_value is processed before add in
	// issue order or get overtakes) dominate; 0 (get processed first) is
	// the rarest.
	distinct := 0
	for _, c := range res.Counts {
		if c > 0 {
			distinct++
		}
	}
	if distinct != 4 {
		t.Errorf("only %d distinct outcomes: %v", distinct, res.Counts)
	}
	p := [4]float64{}
	for v := 0; v <= 3; v++ {
		p[v] = res.Probability(v)
	}
	if p[1]+p[3] <= p[0]+p[2] {
		t.Errorf("issue-order-favoured outcomes should dominate: %v", p)
	}
	if !(p[0] < p[1] && p[0] < p[3]) {
		t.Errorf("P(0) should be the rarest: %v", p)
	}
}

func TestFigure1Deterministic(t *testing.T) {
	a, err := RunFigure1(7, DefaultFigure1Config(300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure1(7, DefaultFigure1Config(300))
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("same seed differs: %v vs %v", a.Counts, b.Counts)
	}
}

func TestFigure1BlockingCollapsesDistribution(t *testing.T) {
	cfg := DefaultFigure1Config(300)
	cfg.Blocking = true
	res, err := RunFigure1(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[3] != 300 {
		t.Errorf("blocking client must always print 3: %v", res.Counts)
	}
}

func TestFigure1Table(t *testing.T) {
	res, err := RunFigure1(1, DefaultFigure1Config(100))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table().String()
	if !strings.Contains(out, "printed value") || !strings.Contains(out, "probability") {
		t.Errorf("table:\n%s", out)
	}
}

func TestFigure5SmallRun(t *testing.T) {
	res, err := RunFigure5(100, 5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 5 {
		t.Fatalf("instances = %d", len(res.Instances))
	}
	// Sorted ascending by prevalence.
	prev := make([]float64, len(res.Instances))
	for i, inst := range res.Instances {
		prev[i] = inst.Counters.Prevalence()
	}
	for i := 1; i < len(prev); i++ {
		if prev[i] < prev[i-1] {
			t.Errorf("not sorted: %v", prev)
		}
	}
	min, mean, max := res.Stats()
	if min > mean || mean > max {
		t.Errorf("stats inconsistent: %v %v %v", min, mean, max)
	}
	out := res.Table().String()
	if !strings.Contains(out, "mismatch(CV)") {
		t.Errorf("table:\n%s", out)
	}
}

func TestFigure5CompositionVaries(t *testing.T) {
	// The paper: "the composition of error types varies significantly" —
	// across enough instances, the dominant error class must not always
	// be the same.
	res, err := RunFigure5(2024, 12, 2000)
	if err != nil {
		t.Fatal(err)
	}
	dominants := map[string]bool{}
	for _, inst := range res.Instances {
		c := inst.Counters
		if c.TotalErrors() == 0 {
			dominants["none"] = true
			continue
		}
		max, name := c.DroppedPre, "pre"
		if c.DroppedCV > max {
			max, name = c.DroppedCV, "cv"
		}
		if c.MismatchCV > max {
			max, name = c.MismatchCV, "mismatch"
		}
		if c.DroppedEBA > max {
			name = "eba"
		}
		dominants[name] = true
	}
	if len(dominants) < 2 {
		t.Errorf("dominant error class identical across all instances: %v", dominants)
	}
}

func TestDeterministicRun(t *testing.T) {
	res, err := RunDeterministic(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.TotalErrors() != 0 {
		t.Errorf("errors: %v", &res.Counters)
	}
	if res.Counters.FramesProcessed != 300 {
		t.Errorf("processed = %d", res.Counters.FramesProcessed)
	}
	if res.LatencyMax <= 0 || res.LatencyMax > logical.Duration(80*logical.Millisecond) {
		t.Errorf("latency max = %v", res.LatencyMax)
	}
	if res.BrakeOns == 0 {
		t.Error("the scripted scenario should trigger braking")
	}
}

func TestDeterminismCheckAcrossSeeds(t *testing.T) {
	results, err := RunDeterminismCheck(10, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Counters.TotalErrors() != 0 {
			t.Errorf("seed %d: errors %v", i, &r.Counters)
		}
		if r.BehaviorHash != results[0].BehaviorHash {
			t.Errorf("behaviour hash differs at seed %d", i)
		}
	}
	// Tag traces (physical arrival times) legitimately differ across
	// seeds — but the behaviour must not.
}

// checkDeterministic on synthetic results: a clean pair passes, and each
// defect fails the gate. The error and identical-timing cases carry equal
// behaviour hashes, so a hash comparison alone would pass them.
func TestCheckDeterministicRejects(t *testing.T) {
	run := func(mean logical.Duration, edit func(*DeterministicResult)) *DeterministicResult {
		r := &DeterministicResult{Frames: 100, LatencyMean: mean, LatencyMax: 2 * mean, BrakeOns: 3, BehaviorHash: 0xb4a}
		r.Counters.FramesProcessed = 100
		if edit != nil {
			edit(r)
		}
		return r
	}
	ok := func() []*DeterministicResult { return []*DeterministicResult{run(70, nil), run(71, nil)} }
	if err := checkDeterministic(ok()); err != nil {
		t.Fatalf("clean runs: %v", err)
	}
	for name, runs := range map[string][]*DeterministicResult{
		"one run":          ok()[:1],
		"errors":           {run(70, nil), run(71, func(r *DeterministicResult) { r.Counters.DeadlineViolations = 1 })},
		"no frames":        {run(70, func(r *DeterministicResult) { r.Counters.FramesProcessed = 0 }), run(71, nil)},
		"no braking":       {run(70, nil), run(71, func(r *DeterministicResult) { r.BrakeOns = 0 })},
		"hash mismatch":    {run(70, nil), run(71, func(r *DeterministicResult) { r.BehaviorHash++ })},
		"identical timing": {run(70, nil), run(70, nil), run(70, nil)},
	} {
		if err := checkDeterministic(runs); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

func TestTradeoffMonotonicity(t *testing.T) {
	res, err := RunTradeoff(1, 200, []float64{0.85, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	tight, full := res.Points[0], res.Points[1]
	if tight.Violations == 0 {
		t.Error("deadlines below WCET should violate sporadically")
	}
	if full.Violations != 0 {
		t.Errorf("full deadlines should not violate: %d", full.Violations)
	}
	// Sporadic, not total: some frames still complete at 0.85.
	if tight.FramesComplete == 0 {
		t.Error("tight deadlines should drop only part of the frames")
	}
	if tight.LatencyMax >= full.LatencyMax {
		t.Errorf("tight deadlines should lower worst-case latency: %v vs %v",
			tight.LatencyMax, full.LatencyMax)
	}
	out := res.Table().String()
	if !strings.Contains(out, "deadline scale") {
		t.Errorf("table:\n%s", out)
	}
}

func TestTagOverhead(t *testing.T) {
	r := MeasureTagOverhead()
	if r.TaggedBytes-r.PlainBytes != 20 {
		t.Errorf("trailer adds %d bytes, want 20", r.TaggedBytes-r.PlainBytes)
	}
	if r.OverheadFraction <= 0 || r.OverheadFraction > 0.05 {
		t.Errorf("overhead fraction = %v (frame payloads should dwarf the trailer)", r.OverheadFraction)
	}
}
