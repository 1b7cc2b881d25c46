package monitor

import (
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/trace"
)

// feed pushes a synthetic event stream through a fresh engine and
// returns its finished verdicts.
func feed(t *testing.T, monitors func() []Monitor, recs []trace.Record) []Verdict {
	t.Helper()
	e := NewEngine(monitors()...)
	for i := range recs {
		r := &recs[i]
		e.TraceEvent(r.Time, r.Component, r.Kind, nil)
	}
	e.Finish()
	return e.Verdicts()
}

func rec(at int64, component, kind string) trace.Record {
	return trace.Record{Time: logical.Time(at), Component: component, Kind: kind}
}

// The Never combinator must flag exactly the forbidden records, with
// the anchor naming the violating record.
func TestNeverFlagsForbiddenKind(t *testing.T) {
	vs := feed(t, func() []Monitor { return []Monitor{NoSilentCorruption()} }, []trace.Record{
		rec(10, "plat00.server", trace.KindServe),
		rec(20, "plat00.server", trace.KindCorrupt),
		rec(30, "plat01.server", trace.KindServe),
	})
	v := vs[0]
	if v.Checked != 3 || v.Violations != 1 {
		t.Fatalf("checked=%d violations=%d, want 3/1", v.Checked, v.Violations)
	}
	s := v.Samples[0]
	if s.Time != 20 || s.Component != "plat00.server" || s.Kind != trace.KindCorrupt {
		t.Fatalf("violation anchored at %+v", s)
	}
}

// A request answered within the deadline discharges its obligation; a
// late answer and an unanswered request are both violations anchored
// at the opening request record.
func TestRespondedWithin(t *testing.T) {
	mon := func() []Monitor {
		return []Monitor{RespondedWithin(100)}
	}

	// In time: close at exactly open+d is fine.
	vs := feed(t, mon, []trace.Record{
		rec(0, "c", trace.KindReq),
		rec(100, "c", trace.KindCall),
	})
	if vs[0].Violations != 0 || vs[0].Checked != 1 {
		t.Fatalf("in-time call flagged: %+v", vs[0])
	}

	// Late: the call-err lands past the deadline.
	vs = feed(t, mon, []trace.Record{
		rec(0, "c", trace.KindReq),
		rec(101, "c", trace.KindCallErr),
	})
	if vs[0].Violations != 1 {
		t.Fatalf("late close not flagged: %+v", vs[0])
	}
	if s := vs[0].Samples[0]; s.Time != 0 || s.Kind != trace.KindReq {
		t.Fatalf("violation not anchored at the open record: %+v", s)
	}

	// Unresolved at end of stream: flushed unconditionally.
	vs = feed(t, mon, []trace.Record{
		rec(0, "c", trace.KindReq),
	})
	if vs[0].Violations != 1 {
		t.Fatalf("pending obligation not flushed: %+v", vs[0])
	}
	if !strings.Contains(vs[0].Samples[0].Detail, "unresolved") {
		t.Fatalf("flush detail: %q", vs[0].Samples[0].Detail)
	}
}

// Obligations are per component: component b's answer must not
// discharge component a's request.
func TestMatchedWithinIsPerComponent(t *testing.T) {
	mon := func() []Monitor { return []Monitor{RespondedWithin(100)} }
	vs := feed(t, mon, []trace.Record{
		rec(0, "a", trace.KindReq),
		rec(10, "b", trace.KindCall), // close with no open: ignored
	})
	if vs[0].Violations != 1 {
		t.Fatalf("cross-component discharge: %+v", vs[0])
	}
}

// A restart followed by a late bind trips the rebound monitor; an
// in-time bind does not. Initial binds (no preceding restart) are
// ignored.
func TestReboundWithin(t *testing.T) {
	mon := func() []Monitor { return []Monitor{ReboundWithin(50)} }
	vs := feed(t, mon, []trace.Record{
		rec(0, "p.life", trace.KindBind), // initial offer: no obligation open
		rec(100, "p.life", trace.KindCrash),
		rec(200, "p.life", trace.KindRestart),
		rec(200, "p.life", trace.KindBind),
	})
	if vs[0].Violations != 0 || vs[0].Checked != 1 {
		t.Fatalf("healthy lifecycle flagged: %+v", vs[0])
	}

	vs = feed(t, mon, []trace.Record{
		rec(200, "p.life", trace.KindRestart),
		rec(251, "p.life", trace.KindBind),
	})
	if vs[0].Violations != 1 || vs[0].Samples[0].Kind != trace.KindRestart {
		t.Fatalf("late bind not flagged at the restart: %+v", vs[0])
	}
}

// standardLib builds the full safety library with fixed deadlines.
func standardLib() []Monitor {
	return []Monitor{
		NoSilentCorruption(),
		RespondedWithin(100),
		ReboundWithin(50),
	}
}

// recordedTrace records recs, a stream in canonical order, through a
// recorder and returns its trace: the records' times, components,
// kinds and sequence numbers, with the digest of an empty payload.
func recordedTrace(recs []trace.Record) *trace.Trace {
	r := trace.NewRecorder(len(recs))
	for i := range recs {
		r.TraceEvent(recs[i].Time, recs[i].Component, recs[i].Kind, nil)
	}
	return r.Trace()
}

// syntheticStream builds a multi-component stream with violations of
// every standard monitor, in canonical order.
func syntheticStream() []trace.Record {
	recs := []trace.Record{
		rec(0, "a", trace.KindReq),
		rec(5, "b", trace.KindReq),
		rec(50, "a", trace.KindCall),     // in time
		rec(120, "b", trace.KindCallErr), // late → violation anchored at t=5
		rec(130, "s", trace.KindCorrupt), // corruption violation
		rec(140, "p.life", trace.KindRestart),
		rec(300, "p.life", trace.KindBind), // late bind → violation at t=140
		rec(310, "a", trace.KindReq),       // unresolved → flush violation
	}
	// Assign per-component seqs the way a recorder would.
	seqs := map[string]uint64{}
	for i := range recs {
		seqs[recs[i].Component]++
		recs[i].Seq = seqs[recs[i].Component]
	}
	return recs
}

// Verdicts must be independent of how components are sharded across
// engines: one engine observing the whole stream and per-component
// engines merged must produce byte-identical reports — the heart of
// the mode-independence claim.
func TestMergeVerdictsMatchesSingleEngine(t *testing.T) {
	recs := syntheticStream()

	whole := NewEngine(standardLib()...)
	for i := range recs {
		whole.Observe(whole.intern(recs[i].Component), &recs[i])
	}
	whole.Finish()
	ref := whole.Verdicts()

	// Shard by component across three engines (arbitrary assignment),
	// feeding each engine its records in stream order.
	engines := []*Engine{
		NewEngine(standardLib()...),
		NewEngine(standardLib()...),
		NewEngine(standardLib()...),
	}
	part := map[string]int{"a": 0, "b": 1, "s": 2, "p.life": 1}
	for i := range recs {
		e := engines[part[recs[i].Component]]
		e.Observe(e.intern(recs[i].Component), &recs[i])
	}
	groups := make([][]Verdict, len(engines))
	for i, e := range engines {
		e.Finish()
		groups[i] = e.Verdicts()
	}
	merged := MergeVerdicts(groups...)

	if Report(merged) != Report(ref) {
		t.Fatalf("merged verdicts diverge from single engine:\n--- single ---\n%s--- merged ---\n%s",
			Report(ref), Report(merged))
	}
	var violations uint64
	for _, v := range ref {
		violations += v.Violations
	}
	if violations != 4 {
		t.Fatalf("synthetic stream should trip 4 violations, got %d:\n%s",
			violations, Report(ref))
	}
}

// FirstViolation returns the canonically smallest violation; the
// verdict hash must not depend on the order violations were reported.
func TestFirstViolationAndHashOrderIndependence(t *testing.T) {
	recs := syntheticStream()
	ref := Evaluate(recordedTrace(recs), standardLib()...)
	first := FirstViolation(ref)
	if first == nil || first.Time != 5 || first.Component != "b" {
		t.Fatalf("first violation = %+v, want the t=5 late request", first)
	}

	// Report the same violations into reporters in two different
	// orders: hash, counts and samples must agree.
	vs := []Violation{
		{Monitor: "m", Time: 3, Component: "x", Seq: 1, Kind: "k", Detail: "d1"},
		{Monitor: "m", Time: 1, Component: "y", Seq: 2, Kind: "k", Detail: "d2"},
		{Monitor: "m", Time: 2, Component: "z", Seq: 3, Kind: "k", Detail: "d3"},
	}
	a, b := &Reporter{v: Verdict{Monitor: "m"}}, &Reporter{v: Verdict{Monitor: "m"}}
	for _, v := range vs {
		a.Violate(v)
	}
	for i := len(vs) - 1; i >= 0; i-- {
		b.Violate(vs[i])
	}
	ra := Report([]Verdict{a.v})
	rb := Report([]Verdict{b.v})
	if ra != rb {
		t.Fatalf("reporter is insertion-order-dependent:\n%s\nvs\n%s", ra, rb)
	}
	if a.v.Samples[0].Time != 1 {
		t.Fatalf("samples not canonically ordered: %+v", a.v.Samples)
	}
}

// The sample set keeps the canonically smallest maxSamples violations
// regardless of insertion order.
func TestSampleCapKeepsSmallest(t *testing.T) {
	rp := &Reporter{v: Verdict{Monitor: "m"}}
	for i := 20; i >= 1; i-- {
		rp.Violate(Violation{Monitor: "m", Time: logical.Time(i), Component: "c", Seq: uint64(i)})
	}
	if len(rp.v.Samples) != maxSamples {
		t.Fatalf("sample count %d, want %d", len(rp.v.Samples), maxSamples)
	}
	for i, s := range rp.v.Samples {
		if s.Time != logical.Time(i+1) {
			t.Fatalf("sample %d anchored at t=%d, want %d", i, int64(s.Time), i+1)
		}
	}
}

// ViolationPrefix cuts the trace at the violation's anchor inclusive,
// and re-evaluating the prefix reproduces the violation (containment:
// truncation-flushed obligations of other components may rank before
// it, but the dumped violation itself must be present).
func TestViolationPrefixRoundTrip(t *testing.T) {
	recs := syntheticStream()
	tr := recordedTrace(recs)
	ref := Evaluate(tr, standardLib()...)
	first := FirstViolation(ref)

	prefix := ViolationPrefix(tr, first)
	last := prefix.At(prefix.Len() - 1)
	if last.Time != first.Time || last.Component != first.Component || last.Seq != first.Seq {
		t.Fatalf("prefix does not end at the violation anchor: %+v vs %+v", last, first)
	}

	replayed := Evaluate(prefix, standardLib()...)
	found := false
	for i := range replayed {
		for j := range replayed[i].Samples {
			s := &replayed[i].Samples[j]
			if s.Monitor == first.Monitor && s.Time == first.Time &&
				s.Component == first.Component && s.Seq == first.Seq {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("replayed prefix lost the dumped violation %+v:\n%s", first, Report(replayed))
	}

	// Replay determinism: evaluating the same prefix twice is
	// byte-identical.
	if Report(Evaluate(prefix, standardLib()...)) != Report(replayed) {
		t.Fatal("prefix evaluation is not deterministic")
	}
}

// Finish is idempotent and freezes the engine: later events must not
// change the verdicts.
func TestFinishIdempotentAndFreezing(t *testing.T) {
	e := NewEngine(NoSilentCorruption())
	e.TraceEvent(1, "c", trace.KindServe, nil)
	e.Finish()
	before := Report(e.Verdicts())
	e.Finish()
	e.TraceEvent(2, "c", trace.KindCorrupt, nil)
	if after := Report(e.Verdicts()); after != before {
		t.Fatalf("engine mutated after Finish:\n%s\nvs\n%s", before, after)
	}
}

// The engine assigns per-component sequence numbers exactly like the
// recorder, so violation anchors name recorded records.
func TestEngineSeqsMatchRecorder(t *testing.T) {
	e := NewEngine(NoSilentCorruption())
	r := trace.NewRecorder(16)
	events := []struct {
		at   int64
		comp string
		kind string
	}{
		{1, "a", trace.KindServe},
		{2, "b", trace.KindServe},
		{3, "a", trace.KindCorrupt},
	}
	for _, ev := range events {
		e.TraceEvent(logical.Time(ev.at), ev.comp, ev.kind, nil)
		r.TraceEvent(logical.Time(ev.at), ev.comp, ev.kind, nil)
	}
	e.Finish()
	v := e.Verdicts()[0].Samples[0]
	tr := r.Trace()
	for i := 0; i < tr.Len(); i++ {
		recd := tr.At(i)
		if recd.Component == v.Component && recd.Seq == v.Seq {
			if recd.Kind != trace.KindCorrupt {
				t.Fatalf("anchor (%s#%d) names a %s record", v.Component, v.Seq, recd.Kind)
			}
			return
		}
	}
	t.Fatalf("anchor (%s#%d) not found in the recorded trace", v.Component, v.Seq)
}
