package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

func mkRecorder(events ...Record) *Recorder {
	r := NewRecorder(len(events) + 16)
	for _, e := range events {
		if e.Data != nil {
			r.RecordInput(e.Time, e.Component, e.Kind, e.Src, e.Data)
		} else {
			r.TraceEvent(e.Time, e.Component, e.Kind, []byte{byte(e.Digest)})
		}
	}
	return r
}

// Merge must order records by (time, component, seq) regardless of
// how they were split across recorders — the property that makes a
// federated trace byte-identical to the single-kernel trace.
func TestMergeCanonicalOrder(t *testing.T) {
	// One recorder with everything, in execution order.
	single := NewRecorder(16)
	single.TraceEvent(10, "b", KindCall, []byte{1})
	single.TraceEvent(10, "a", KindServe, []byte{2})
	single.TraceEvent(20, "a", KindServe, []byte{3})
	single.TraceEvent(20, "a", KindServe, []byte{4})

	// The same events split across two "partition" recorders.
	p0 := NewRecorder(16)
	p0.TraceEvent(10, "a", KindServe, []byte{2})
	p0.TraceEvent(20, "a", KindServe, []byte{3})
	p0.TraceEvent(20, "a", KindServe, []byte{4})
	p1 := NewRecorder(16)
	p1.TraceEvent(10, "b", KindCall, []byte{1})

	one := Merge(single)
	fed := Merge(p0, p1)
	if d := FirstDivergence(one, fed); d != nil {
		t.Fatalf("merged federated trace diverged from single trace: %s", d)
	}
	if !bytes.Equal(one.Encode(), fed.Encode()) {
		t.Fatal("encodings differ despite identical records")
	}
	// Canonical order: t=10 "a" before t=10 "b", then the two t=20
	// records in seq order.
	want := []string{"a", "b", "a", "a"}
	for i, w := range want {
		if c := one.At(i).Component; c != w {
			t.Fatalf("record %d component = %s, want %s", i, c, w)
		}
	}
	if one.At(2).Seq >= one.At(3).Seq {
		t.Fatal("same-component same-time records out of seq order")
	}

	// An empty recorder contributes nothing, and merging nothing
	// allocates no order index and references no ring.
	if d := FirstDivergence(one, Merge(NewRecorder(16), p0, NewRecorder(16), p1)); d != nil {
		t.Fatalf("empty recorders changed the merge: %s", d)
	}
	for _, empty := range []*Trace{Merge(), Merge(NewRecorder(16))} {
		if empty.order != nil || empty.srcs != nil {
			t.Fatal("empty merge allocated an order index or kept a ring")
		}
	}
}

// genStream is one recorder's worth of generated events: what the
// recorder is fed and, independently, the records it must hold.
type genStream struct {
	rec     *Recorder
	want    []Record // surviving records in insertion order
	dropped uint64   // records evicted by ring overflow
}

// genNames are the component name patterns of genRecorders (%d is the
// recorder). Besides short distinct names they include names sharing
// their first 8 bytes, a name that is a prefix of another, and names
// that differ only by trailing zero bytes, which Merge's zero-padded
// integer name prefix cannot tell apart.
var genNames = []string{"p%d.c0", "p%d.c1", "p%d.c2", "p%d.c0\x00", "p%d.component", "p%d.componentX", "p%d.compo\x00"}

// genRecorders builds 1–5 recorders from a seed. Times come from a
// narrow range so same-time ties are heavy within and across streams;
// each component lives on one recorder unless dup names one shared
// across the first two (a contract violation). Stream 0 is time-
// disordered when disorder is set (the live-recording shape); the
// others are time-ordered like a kernel's. Some recorders stay empty
// and some rings wrap.
func genRecorders(rng *rand.Rand, disorder bool, dup string) []genStream {
	streams := make([]genStream, 1+rng.Intn(5))
	for i := range streams {
		capacity := 16 + rng.Intn(24)
		n := 0
		if rng.Intn(5) != 0 {
			n = rng.Intn(2 * capacity) // past capacity the ring wraps
		}
		r := NewRecorder(capacity)
		seqs := map[string]uint64{}
		var all []Record
		now := logical.Time(rng.Intn(4))
		for j := 0; j < n; j++ {
			if disorder && i == 0 {
				now = logical.Time(rng.Intn(8))
			} else if rng.Intn(3) == 0 {
				now += logical.Time(rng.Intn(3))
			}
			comp := fmt.Sprintf(genNames[rng.Intn(len(genNames))], i)
			if dup != "" && i < 2 && rng.Intn(4) == 0 {
				comp = dup
			}
			seqs[comp]++
			payload := []byte{byte(rng.Intn(256)), byte(j)}
			rec := Record{Time: now, Seq: seqs[comp], Component: comp, Digest: Digest(payload)}
			if rng.Intn(6) == 0 {
				rec.Kind, rec.Src, rec.Data = KindRecv, "peer", payload
				r.RecordInput(now, comp, rec.Kind, rec.Src, payload)
			} else {
				rec.Kind = []string{KindCall, KindServe, KindNoise}[rng.Intn(3)]
				r.TraceEvent(now, comp, rec.Kind, payload)
			}
			all = append(all, rec)
		}
		dropped := uint64(0)
		if len(all) > capacity {
			dropped = uint64(len(all) - capacity)
			all = all[len(all)-capacity:]
		}
		streams[i] = genStream{rec: r, want: all, dropped: dropped}
	}
	return streams
}

// fromRecords builds a trace holding recs in the given order — one
// ring in identity order, with one table entry per distinct name: a
// construction independent of Merge.
func fromRecords(recs []Record, truncated uint64) *Trace {
	var src source
	var comps, kinds names
	t := &Trace{Truncated: truncated}
	for i, r := range recs {
		s := slot{time: r.Time, seq: r.Seq, digest: r.Digest,
			comp: comps.id([]byte(r.Component)), kind: kinds.id([]byte(r.Kind))}
		if r.Src != "" || r.Data != nil {
			s.kind |= storedBit
			if src.inputs == nil {
				src.inputs = map[int]storedInput{}
			}
			src.inputs[i] = storedInput{src: r.Src, data: r.Data}
		}
		src.ring = append(src.ring, s)
		t.order = append(t.order, uint32(i))
	}
	src.comps, src.kinds = comps.list, kinds.list
	t.srcs = []source{src}
	return t
}

// referenceMerge is the specification Merge must meet: the union of
// every stream in argument order, stably sorted by (time, component,
// seq) in one pass. It returns the records and the evicted count.
func referenceMerge(streams []genStream) ([]Record, uint64) {
	var recs []Record
	var truncated uint64
	for _, s := range streams {
		recs = append(recs, s.want...)
		truncated += s.dropped
	}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Seq < b.Seq
	})
	return recs, truncated
}

// sameTrace fails t unless got and want hold the same records, byte for
// byte, and the same Truncated count.
func sameTrace(t *testing.T, label string, got, want *Trace) {
	t.Helper()
	if d := FirstDivergence(want, got); d != nil {
		t.Fatalf("%s: diverged from the reference: %s", label, d)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatalf("%s: encodings differ", label)
	}
}

// recordBytes is the trace's encoding with the Truncated count zeroed:
// the bytes of its records, which FirstDivergence compares.
func recordBytes(t *Trace) []byte {
	c := *t
	c.Truncated = 0
	return c.Encode()
}

// checkDivergenceMatchesEncoding fails unless FirstDivergence(a, b) is
// nil exactly when a and b encode their records identically.
func checkDivergenceMatchesEncoding(t *testing.T, label string, a, b *Trace) {
	t.Helper()
	d := FirstDivergence(a, b)
	if eq := bytes.Equal(recordBytes(a), recordBytes(b)); eq != (d == nil) {
		t.Fatalf("%s: FirstDivergence = %v but encodings equal = %v", label, d, eq)
	}
}

// Property: over seeded random recorder sets, Merge equals a full
// canonical sort of the union — record for record and byte for byte —
// across tie-heavy, wrapped, empty and time-disordered streams, and
// stays deterministic when a key is duplicated across streams. Its
// Prefix, Filter and WithoutTimes equal the same cuts of the sorted
// records, and FirstDivergence against other traces is nil exactly
// when the record encodings are equal.
func TestMergeMatchesReferenceSort(t *testing.T) {
	var prev *Trace
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dup := ""
		if seed%4 == 0 {
			dup = "dup"
		}
		streams := genRecorders(rng, seed%3 == 0, dup)
		recs := make([]*Recorder, len(streams))
		for i, s := range streams {
			recs[i] = s.rec
		}
		all, truncated := referenceMerge(streams)
		got, want := Merge(recs...), fromRecords(all, truncated)
		label := fmt.Sprintf("seed %d", seed)
		sameTrace(t, label+": Merge", got, want)
		if got.Truncated != want.Truncated {
			t.Fatalf("%s: Truncated = %d, want %d", label, got.Truncated, want.Truncated)
		}
		if !bytes.Equal(Merge(recs...).Encode(), got.Encode()) {
			t.Fatalf("%s: repeated Merge differs", label)
		}
		// Prefix, Filter and WithoutTimes of the merged trace equal the
		// same cut of the reference records.
		half := len(all) / 2
		sameTrace(t, label+": Prefix", got.Prefix(half), fromRecords(all[:half], truncated))
		for _, kind := range []string{KindRecv, KindCall, "absent"} {
			var kept []Record
			for _, r := range all {
				if r.Kind == kind {
					kept = append(kept, r)
				}
			}
			sameTrace(t, label+": Filter("+kind+")", got.Filter(kind), fromRecords(kept, truncated))
		}
		untimed := slices.Clone(all)
		for i := range untimed {
			untimed[i].Time = 0
		}
		sameTrace(t, label+": WithoutTimes", got.WithoutTimes(), fromRecords(untimed, truncated))
		for _, o := range []struct {
			label string
			tr    *Trace
		}{
			{"previous seed", prev},
			{"without times", got.WithoutTimes()},
			{"inputs only", got.Filter(KindRecv)},
			{"prefix", got.Prefix(got.Len() / 2)},
		} {
			if o.tr != nil {
				checkDivergenceMatchesEncoding(t, label+": "+o.label, got, o.tr)
			}
		}
		prev = got
	}
}

func TestFirstDivergence(t *testing.T) {
	a := Merge(mkRecorder(
		Record{Time: 1, Component: "x", Kind: KindCall, Digest: 1},
		Record{Time: 2, Component: "x", Kind: KindCall, Digest: 2},
	))
	b := Merge(mkRecorder(
		Record{Time: 1, Component: "x", Kind: KindCall, Digest: 1},
		Record{Time: 2, Component: "x", Kind: KindCall, Digest: 3},
	))
	if d := FirstDivergence(a, a); d != nil {
		t.Fatalf("trace diverges from itself: %s", d)
	}
	d := FirstDivergence(a, b)
	if d == nil {
		t.Fatal("differing digests not detected")
	}
	if d.Index != 1 || d.Time() != 2 || d.Component() != "x" || d.Kind() != KindCall {
		t.Fatalf("wrong divergence: %s", d)
	}

	// Prefix case: the longer trace's extra record is the divergence.
	short := a.Prefix(1)
	d = FirstDivergence(short, a)
	if d == nil || d.Index != 1 || d.A != nil || d.B == nil {
		t.Fatalf("prefix divergence wrong: %v", d)
	}
	if d.Component() != "x" || d.Kind() != KindCall {
		t.Fatalf("prefix divergence triple wrong: %s", d)
	}

	// A stored empty input and a digest-only record that agree on
	// everything else encode differently, so they diverge.
	stored, digestOnly := NewRecorder(16), NewRecorder(16)
	stored.recordInputOwned(1, "x", KindRecv, "", []byte{})
	digestOnly.TraceEvent(1, "x", KindRecv, nil)
	e, f := stored.Trace(), digestOnly.Trace()
	if bytes.Equal(e.Encode(), f.Encode()) {
		t.Fatal("a stored empty input encodes like a digest-only record")
	}
	if d := FirstDivergence(e, f); d == nil || d.Index != 0 {
		t.Fatalf("stored empty input vs digest-only record: divergence %v, want one at record 0", d)
	}
}

// The binary encoding must round-trip every field, stored input bytes
// included, and the source of an input captured without bytes.
func TestEncodeRoundTrips(t *testing.T) {
	rec := NewRecorder(16)
	rec.TraceEvent(5, "plat00.client", KindCall, []byte("payload"))
	rec.RecordInput(7, "server", KindRecv, "127.0.0.1:9", []byte{1, 2, 3})
	rec.TraceEvent(7, "server", KindSend, nil)
	rec.RecordInput(8, "server", KindRecv, "127.0.0.1:10", nil)
	tr := rec.Trace()
	tr.Truncated = 3 // exercise the field

	bin, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d := FirstDivergence(tr, bin); d != nil || bin.Truncated != 3 {
		t.Fatalf("binary round trip changed the trace: %v (truncated=%d)", d, bin.Truncated)
	}
	if r := bin.At(3); r.Src != "127.0.0.1:10" || r.Data != nil {
		t.Fatalf("input without bytes decoded as %s", &r)
	}

	// Corruption fails loudly.
	raw := tr.Encode()
	if _, err := Decode(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated encoding decoded without error")
	}
	if _, err := Decode(append(raw, 0)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
	raw[0] = 'X'
	if _, err := Decode(raw); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

// A captured zero-length input is a stored input, not "no bytes": it
// reads back with non-nil empty Data, encodes with hasData 1, survives
// Decode, and a Replayer counts it and refuses to start on it instead of
// skipping it.
func TestRecordInputKeepsEmptyInput(t *testing.T) {
	r := NewRecorder(16)
	r.RecordInput(1, "c", KindRecv, "peer", []byte{})
	tr := r.Trace()
	if rec := tr.At(0); rec.Data == nil || len(rec.Data) != 0 || rec.Src != "peer" {
		t.Fatalf("empty input reads back as %s (Data nil: %v)", &rec, rec.Data == nil)
	}
	enc := tr.Encode()
	// The record ends in hasData and the u32 length of its bytes.
	if tail := enc[len(enc)-5:]; !bytes.Equal(tail, []byte{1, 0, 0, 0, 0}) {
		t.Fatalf("empty input encodes its stored flag and length as %v, want [1 0 0 0 0]", tail)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rec := dec.At(0); rec.Data == nil || !bytes.Equal(dec.Encode(), enc) {
		t.Fatalf("empty input does not round-trip through Decode: %s", &rec)
	}
	rp := NewReplayer(des.NewKernel(1), tr, NewRecorder(16))
	if rp.Inputs() != 1 {
		t.Fatalf("replayer sees %d inputs, want the empty one", rp.Inputs())
	}
	if err := rp.Start(); err == nil || !strings.Contains(err.Error(), "replay input #0 (c)") {
		t.Fatalf("Start on an empty input: error %v, want one naming input #0 of c", err)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	rec := NewRecorder(16)
	rec.RecordInput(1, "c", KindRecv, "peer", []byte{9, 9})
	tr := rec.Trace()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := FirstDivergence(tr, got); d != nil {
		t.Fatalf("file round trip changed the trace: %s", d)
	}
}

// Ring overflow recycles the oldest slots and counts the loss.
func TestRecorderRingOverflow(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.TraceEvent(logical.Time(i), "c", KindCall, []byte{byte(i)})
	}
	if r.Len() != 16 {
		t.Fatalf("ring holds %d records, want 16", r.Len())
	}
	tr := r.Trace()
	if tr.Truncated != 24 {
		t.Fatalf("trace.Truncated = %d", tr.Truncated)
	}
	// The survivors are the newest records, seqs intact.
	if r := tr.At(0); r.Seq != 25 || r.Time != 24 {
		t.Fatalf("oldest survivor = %s, want seq 25 at t=24", r.String())
	}
}

// The kernel hook: Trace forwards a registered component's events to
// the installed tracer with the kernel's current time; without a
// tracer it is a no-op.
func TestKernelTraceHook(t *testing.T) {
	k := des.NewKernel(1)
	k.Trace(k.Component("c"), KindCall, nil) // no tracer: must not panic
	rec := NewRecorder(16)
	k.SetTracer(rec)
	c := k.Component("c")
	k.At(10, func() { k.Trace(c, KindCall, []byte{1}) })
	k.At(20, func() { k.Trace(c, KindServe, []byte{2}) })
	k.RunAll()
	tr := rec.Trace()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", tr.Len())
	}
	r0, r1 := tr.At(0), tr.At(1)
	if r0.Time != 10 || r1.Time != 20 {
		t.Fatalf("kernel times not stamped: %s / %s", r0.String(), r1.String())
	}
	if r0.Seq != 1 || r1.Seq != 2 {
		t.Fatal("per-component sequence not monotone")
	}
}

// WithoutTimes zeroes times but preserves order and content.
func TestWithoutTimes(t *testing.T) {
	rec := NewRecorder(16)
	rec.TraceEvent(5, "a", KindCall, []byte{1})
	rec.TraceEvent(9, "a", KindCall, []byte{2})
	tr := rec.Trace()
	stripped := tr.WithoutTimes()
	if stripped.At(0).Time != 0 || stripped.At(1).Time != 0 {
		t.Fatal("times survive WithoutTimes")
	}
	if tr.At(0).Time != 5 {
		t.Fatal("WithoutTimes mutated the original")
	}
	if stripped.At(0).Digest != tr.At(0).Digest {
		t.Fatal("WithoutTimes changed record content")
	}
}

// The replayer injects stored inputs in order and captures sends.
func TestReplayerInjectsAndCaptures(t *testing.T) {
	// Record two inputs (same wall nanosecond — injection must keep
	// capture order) through a recording endpoint facade.
	rec := NewRecorder(16)
	msg := func(b byte) []byte {
		m := &someip.Message{Service: 0x2102, Method: 1, Type: someip.TypeRequest, Payload: []byte{b}}
		return m.Marshal()
	}
	rec.RecordInput(100, "server", KindRecv, "peer:1", msg(1))
	rec.RecordInput(100, "server", KindRecv, "peer:1", msg(2))

	k := des.NewKernel(1)
	out := NewRecorder(16)
	rp := NewReplayer(k, rec.Trace(), out)
	if rp.Inputs() != 2 {
		t.Fatalf("replayer sees %d inputs, want 2", rp.Inputs())
	}
	var order []byte
	rp.OnMessage(func(src someip.Addr, m *someip.Message) {
		order = append(order, m.Payload[0])
		// Echo straight back through the endpoint.
		if err := rp.Send(src, &someip.Message{
			Service: m.Service, Method: m.Method,
			Type: someip.TypeResponse, Payload: m.Payload,
		}); err != nil {
			t.Error(err)
		}
	})
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err == nil {
		t.Fatal("double Start not rejected")
	}
	k.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("injection order = %v", order)
	}
	tr := out.Trace()
	if tr.Len() != 4 {
		t.Fatalf("replayed trace has %d records, want 4 (2 recv + 2 send)", tr.Len())
	}
	sends := tr.Filter(KindSend)
	if sends.Len() != 2 {
		t.Fatalf("captured %d sends", sends.Len())
	}
}

// A recording endpoint must be transparent: traffic flows through the
// wrapped endpoint unchanged while inputs are stored in full and
// outputs as digests.
func TestRecordingEndpointTransparent(t *testing.T) {
	inner := &fakeEndpoint{}
	rec := NewRecorder(16)
	now := logical.Time(0)
	ep := NewRecordingEndpoint(inner, rec, "server", func() logical.Time { now++; return now })

	var got *someip.Message
	ep.OnMessage(func(src someip.Addr, m *someip.Message) { got = m })

	req := &someip.Message{Service: 1, Method: 2, Type: someip.TypeRequest, Payload: []byte{7},
		Tag: &logical.Tag{Time: 42}}
	inner.deliver(replayAddr("peer"), req)
	if got == nil || got.Payload[0] != 7 {
		t.Fatal("inbound message not forwarded")
	}
	resp := &someip.Message{Service: 1, Method: 2, Type: someip.TypeResponse, Payload: []byte{8}}
	if err := ep.Send(replayAddr("peer"), resp); err != nil {
		t.Fatal(err)
	}
	if inner.sentMsgs != 1 {
		t.Fatal("outbound message not forwarded")
	}

	tr := rec.Trace()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", tr.Len())
	}
	in, out := tr.At(0), tr.At(1)
	if in.Kind != KindRecv || in.Data == nil || in.Src != "peer" {
		t.Fatalf("input record wrong: %s", &in)
	}
	if m, err := someip.UnmarshalTagged(in.Data); err != nil || m.Tag == nil || m.Tag.Time != 42 {
		t.Fatalf("stored input does not round-trip the tag: %v %v", m, err)
	}
	if out.Kind != KindSend || out.Data != nil {
		t.Fatalf("output record wrong: %s", &out)
	}
	if out.Digest != Digest(resp.Marshal()) {
		t.Fatal("output digest does not cover the marshaled message")
	}
}

// fakeEndpoint is a minimal someip.Endpoint for wrapper tests.
type fakeEndpoint struct {
	handler  func(src someip.Addr, m *someip.Message)
	sentMsgs int
}

func (f *fakeEndpoint) Send(dst someip.Addr, m *someip.Message) error { f.sentMsgs++; return nil }
func (f *fakeEndpoint) OnMessage(fn func(src someip.Addr, m *someip.Message)) {
	f.handler = fn
}
func (f *fakeEndpoint) LocalAddr() someip.Addr { return replayAddr("fake") }
func (f *fakeEndpoint) Close() error           { return nil }
func (f *fakeEndpoint) deliver(src someip.Addr, m *someip.Message) {
	if f.handler != nil {
		f.handler(src, m)
	}
}
