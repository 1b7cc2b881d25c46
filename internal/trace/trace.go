// Package trace is the deterministic trace subsystem: a first-class,
// inspectable representation of "what the run did" that turns the
// repo's determinism gates from byte-equality oracles into localized
// diagnoses, and the paper's pure-function claim into a replayable
// artifact.
//
// Three capabilities layer on the existing seams:
//
//   - Recording. A Recorder attaches to a des.Kernel (one per
//     partition kernel under a des.Federation) through the kernel's
//     Tracer hook and captures logical events — (logical time,
//     per-component sequence number, component label, event kind,
//     payload digest) — into a preallocated, pointer-free ring. It is
//     the one place an event is digested and sequenced; a Tap (the
//     monitor engine) observes each record as it is stored. The
//     canonical merged trace of a run is byte-identical across
//     GOMAXPROCS values and partition counts: records carry no
//     kernel-global state, and Merge orders them by (time, component,
//     sequence), a total order every execution mode agrees on. The
//     merged Trace keeps the ring's 32-byte slots, with trace-wide name
//     tables beside them: Len and At read it, At resolving one Record
//     without allocating, and it is immutable once built, because
//     Prefix, Filter and WithoutTimes share its tables.
//
//   - Divergence diagnosis. FirstDivergence(a, b) names the first
//     event at which two traces disagree — time, component, kind,
//     digest — so a failing determinism gate can say *where* two runs
//     parted instead of dumping two unequal reports.
//
//   - Record/replay. RecordingEndpoint captures the tagged inputs of
//     a live (real-socket) run at the someip.Endpoint seam, a trace
//     file persists them, and Replayer re-injects them into a fresh
//     simulated kernel — the DEAR application, being a pure function
//     of its tagged inputs, must reproduce the recorded outputs.
//
// Traces have one encoding, a deterministic binary format
// (Encode/Decode, WriteFile/ReadFile) for artifacts and CI;
// Record.String and cmd/someip-dump -trace render them for human
// inspection. Payloads are digested, not stored, except for records captured as re-injectable
// inputs (RecordInput, RecordingEndpoint's receive path), which keep
// the full marshaled bytes — replay needs them.
package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/logical"
)

// Event kinds used by the built-in instrumentation. Kinds are open —
// any string works — but the endpoint wrappers and the scenario
// engine agree on these.
const (
	// KindRecv marks an inbound message captured at an endpoint seam.
	// Recv records store the full marshaled message so it can be
	// re-injected by a Replayer.
	KindRecv = "recv"
	// KindSend marks an outbound message at an endpoint seam
	// (digest-only).
	KindSend = "send"
	// KindCall marks a completed client call in the scenario engine.
	KindCall = "call"
	// KindCallErr marks an observable client-call failure.
	KindCallErr = "call-err"
	// KindServe marks a served compute invocation.
	KindServe = "serve"
	// KindNoise marks a delivered local-load datagram in the scenario
	// engine (its record time carries the seeded delivery timing).
	KindNoise = "noise"
	// KindReq marks a client call issuance in the scenario engine — the
	// open side of the request/response pair the responded-within
	// monitor matches against a later KindCall or KindCallErr of the
	// same component.
	KindReq = "req"
	// KindCrash marks a platform going down (the open side of a
	// lifecycle obligation).
	KindCrash = "crash"
	// KindRestart marks a crashed platform coming back up.
	KindRestart = "restart"
	// KindBind marks a platform's service (re-)offer — the event that
	// discharges a rebound-within obligation.
	KindBind = "bind"
	// KindCorrupt marks an input that failed an integrity check. The
	// DEAR model refuses corrupt inputs structurally, so a correct run
	// never emits one; the no-silent-corruption monitor watches for the
	// sentinel.
	KindCorrupt = "corrupt"
)

// Record is one logical event of a trace. Records are mode-
// independent by construction: every field is a pure function of the
// emitting component's own behaviour — logical time, the component's
// private sequence counter, the event kind and the payload digest —
// never of kernel-global counters (event sequence numbers, partition
// ids), which differ between execution modes.
type Record struct {
	// Time is the logical (simulated or wall-derived) time of the
	// event in nanoseconds.
	Time logical.Time
	// Seq is the component-local sequence number, starting at 1 and
	// incrementing per record of the same component. It breaks ties
	// between same-time records of one component and is identical in
	// every execution mode.
	Seq uint64
	// Component labels the emitting component (e.g. "plat03.client").
	// A component must live on exactly one kernel of a federation.
	Component string
	// Kind classifies the event (see the Kind constants).
	Kind string
	// Digest is the FNV-1a digest of the event payload.
	Digest uint64
	// Src is the source address of a captured input (recv records
	// only).
	Src string
	// Data holds the full marshaled bytes of a captured input so a
	// Replayer can re-inject it. Digest-only records leave it nil.
	Data []byte
}

// String renders the record for diagnostics.
func (r *Record) String() string {
	extra := ""
	if r.Src != "" {
		extra = " src=" + r.Src
	}
	if r.Data != nil {
		extra += fmt.Sprintf(" data=%dB", len(r.Data))
	}
	return fmt.Sprintf("t=%d %s#%d %s digest=%016x%s",
		int64(r.Time), r.Component, r.Seq, r.Kind, r.Digest, extra)
}

// equal reports full record equality, stored input bytes included.
// Whether an input is stored (non-nil Data) counts on its own, because
// the encoding writes a stored empty input differently from none.
func (r *Record) equal(o *Record) bool {
	return r.Time == o.Time && r.Seq == o.Seq && r.Component == o.Component &&
		r.Kind == o.Kind && r.Digest == o.Digest && r.Src == o.Src &&
		(r.Data == nil) == (o.Data == nil) && bytes.Equal(r.Data, o.Data)
}

// Trace is a canonical logical event trace: records sorted by (time,
// component, sequence) — a total order (component+seq is unique) that
// every execution mode agrees on, so two behaviourally identical runs
// produce byte-identical encoded traces regardless of partition count
// or GOMAXPROCS.
//
// A trace keeps its records in the recorder ring's pointer-free 32-byte
// slots, so the collector never scans them. The slots' ids index
// trace-wide name tables (components, and kinds with each name once),
// and stored inputs sit in a side table keyed by record index. Len and
// At read the records; At resolves one without allocating. A Trace is
// immutable once built: Prefix, Filter and WithoutTimes share its
// tables.
type Trace struct {
	// Truncated counts records evicted from ring buffers before the
	// merge (0 = complete). A truncated trace is still canonical but
	// mode-independence only holds for complete traces.
	Truncated uint64
	slots     []slot              // the records in canonical order
	comps     []string            // component names by slot.comp
	kinds     []string            // kind names by slot.kind&^storedBit, each once
	inputs    map[int]storedInput // by record index, for slots with storedBit
}

// mergeStream is one recorder's records during a Merge: ring indices
// in canonical order, the name prefix of each of the recorder's
// components, and how its ids map into the trace's tables.
type mergeStream struct {
	r      *Recorder
	idx    []int
	prefix []uint64 // by component id
	base   uint32   // the id of the recorder's first component in the trace
	kinds  []int    // the trace's kind id by the recorder's kind id
}

// namePrefix returns the first 8 bytes of a component name as a
// big-endian integer, zero-padded. Names whose prefixes differ order as
// their prefixes do, so Merge orders components by integers and falls
// back to the names only on a shared prefix.
func namePrefix(name string) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(name) {
			p |= uint64(name[i])
		}
	}
	return p
}

// compareSlots orders slot a of stream s and slot b of stream u by the
// canonical (time, component, seq) key.
func compareSlots(s *mergeStream, a *slot, u *mergeStream, b *slot) int {
	if a.time != b.time {
		return cmp.Compare(a.time, b.time)
	}
	if pa, pb := s.prefix[a.comp], u.prefix[b.comp]; pa != pb {
		return cmp.Compare(pa, pb)
	}
	if s.r != u.r || a.comp != b.comp {
		if c := strings.Compare(s.r.comps[a.comp], u.r.comps[b.comp]); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.seq, b.seq)
}

// compare orders ring slots a and b of the stream canonically.
func (s *mergeStream) compare(a, b int) int {
	return compareSlots(s, &s.r.ring[a], s, &s.r.ring[b])
}

// sort puts the stream into canonical order. A kernel-driven stream is
// already time-ordered (kernel time never goes backwards), so only its
// equal-time runs need sorting by (component, seq); a stream whose
// times decrease — live recording, where two goroutines stamp
// wall-clock times — falls back to a full sort.
func (s *mergeStream) sort(timeOrdered bool) {
	if !timeOrdered {
		slices.SortFunc(s.idx, s.compare)
		return
	}
	ring := s.r.ring
	for i := 0; i < len(s.idx); {
		j := i + 1
		for j < len(s.idx) && ring[s.idx[j]].time == ring[s.idx[i]].time {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(s.idx[i:j], s.compare)
		}
		i = j
	}
}

// Merge combines the recorders' rings — typically one per partition
// kernel of a federation — into one canonical trace. Because each
// component lives on exactly one kernel and records only component-
// local state, the merged trace is byte-identical to the trace of the
// same scenario run on a single kernel.
//
// Each ring is read in place under its recorder's lock (held for the
// whole merge), put into canonical order as a list of slot indices (see
// mergeStream.sort), and the k sorted streams are merged head by head
// straight into one exact-size slot slice: each winning slot is copied
// with its ids remapped into the trace's tables (the recorders'
// component tables concatenated, their kinds deduplicated), so no name
// is resolved and no record is re-sorted. Components compare by an
// integer name prefix computed once per component (namePrefix), and by
// name only when two prefixes agree. Equal keys — a contract violation:
// one component on two recorders — resolve to the earlier argument, so
// the output stays deterministic.
func Merge(recorders ...*Recorder) *Trace {
	defer unlockAll(lockAll(recorders))
	t := &Trace{}
	total, ncomps, nkinds := 0, 0, 0
	for _, r := range recorders {
		total += r.count
		ncomps += len(r.comps)
		nkinds += len(r.kinds)
		t.Truncated += r.dropped
	}
	if total == 0 {
		return t
	}
	prefixes := make([]uint64, ncomps)
	idx := make([]int, total+nkinds) // the streams' index lists and kind maps
	streams := make([]mergeStream, len(recorders))
	t.comps = make([]string, 0, ncomps)
	for i, r := range recorders {
		s := &streams[i]
		s.r = r
		s.prefix, prefixes = prefixes[:len(r.comps)], prefixes[len(r.comps):]
		for c, name := range r.comps {
			s.prefix[c] = namePrefix(name)
		}
		s.base = uint32(len(t.comps))
		t.comps = append(t.comps, r.comps...)
		s.kinds, idx = idx[:len(r.kinds)], idx[len(r.kinds):]
		for k, name := range r.kinds {
			s.kinds[k] = int(t.kindID(name))
		}
		s.idx, idx = idx[:r.count], idx[r.count:]
		timeOrdered := true
		for j := range s.idx {
			s.idx[j] = (r.head + j) % len(r.ring)
			if j > 0 && r.ring[s.idx[j]].time < r.ring[s.idx[j-1]].time {
				timeOrdered = false
			}
		}
		s.sort(timeOrdered)
	}
	t.slots = make([]slot, total)
	for n := range t.slots {
		var best *mergeStream
		var head *slot
		for i := range streams {
			s := &streams[i]
			if len(s.idx) == 0 {
				continue
			}
			h := &s.r.ring[s.idx[0]]
			if best == nil || compareSlots(s, h, best, head) < 0 {
				best, head = s, h
			}
		}
		out := &t.slots[n]
		*out = *head
		out.comp += best.base
		out.kind = uint32(best.kinds[head.kind&^storedBit]) | head.kind&storedBit
		if head.kind&storedBit != 0 {
			t.setInput(n, best.r.inputs[best.idx[0]])
		}
		best.idx = best.idx[1:]
	}
	return t
}

// kindID returns kind's index in the trace's kind table, adding it on
// first sight. A trace has a handful of kinds, so a scan beats a map.
func (t *Trace) kindID(kind string) uint32 {
	if i := slices.Index(t.kinds, kind); i >= 0 {
		return uint32(i)
	}
	t.kinds = append(t.kinds, kind)
	return uint32(len(t.kinds) - 1)
}

// setInput stores record i's input in the side table and marks its
// slot.
func (t *Trace) setInput(i int, in storedInput) {
	t.slots[i].kind |= storedBit
	if t.inputs == nil {
		t.inputs = make(map[int]storedInput)
	}
	t.inputs[i] = in
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.slots) }

// At returns record i in canonical order. The record shares the
// trace's names and stored bytes, so At allocates nothing; the caller
// must not modify its Data.
func (t *Trace) At(i int) Record {
	s := &t.slots[i]
	r := Record{
		Time: s.time, Seq: s.seq, Digest: s.digest,
		Component: t.comps[s.comp], Kind: t.kinds[s.kind&^storedBit],
	}
	if s.kind&storedBit != 0 {
		in := t.inputs[i]
		r.Src, r.Data = in.src, in.data
	}
	return r
}

// Prefix returns the trace's first n records as a trace that shares
// t's slots and tables: nothing is copied.
func (t *Trace) Prefix(n int) *Trace {
	out := *t
	out.slots = t.slots[:n:n]
	return &out
}

// Filter returns a new trace holding only records of the given kind,
// preserving canonical order. It shares t's name tables.
func (t *Trace) Filter(kind string) *Trace {
	out := &Trace{Truncated: t.Truncated, comps: t.comps, kinds: t.kinds}
	k := slices.Index(t.kinds, kind)
	if k < 0 {
		return out
	}
	for i := range t.slots {
		s := &t.slots[i]
		if s.kind&^storedBit != uint32(k) {
			continue
		}
		out.slots = append(out.slots, *s)
		if s.kind&storedBit != 0 {
			out.setInput(len(out.slots)-1, t.inputs[i])
		}
	}
	return out
}

// WithoutTimes returns a copy of the trace with every record's time
// zeroed (canonical record order preserved). Replay comparisons use
// it: a replayed run reproduces the recorded event *contents and
// order*, while event times shift from wall-derived to simulated.
func (t *Trace) WithoutTimes() *Trace {
	out := *t
	out.slots = slices.Clone(t.slots)
	for i := range out.slots {
		out.slots[i].time = 0
	}
	return &out
}

// Divergence names the first event at which two traces disagree. A
// and B are the differing records of the respective traces; one of
// them is nil when the shorter trace is a strict prefix of the
// longer.
type Divergence struct {
	// Index is the position (in canonical order) of the first
	// disagreement.
	Index int
	// A is the first trace's record at Index (nil when trace A ended).
	A *Record
	// B is the second trace's record at Index (nil when trace B ended).
	B *Record
}

// Time returns the logical time of the divergent event (the earlier
// of the two sides when both exist).
func (d *Divergence) Time() logical.Time {
	switch {
	case d.A == nil:
		return d.B.Time
	case d.B == nil:
		return d.A.Time
	case d.B.Time < d.A.Time:
		return d.B.Time
	default:
		return d.A.Time
	}
}

// Component returns the component label of the divergent event.
func (d *Divergence) Component() string {
	if d.A != nil {
		return d.A.Component
	}
	return d.B.Component
}

// Kind returns the kind of the divergent event.
func (d *Divergence) Kind() string {
	if d.A != nil {
		return d.A.Kind
	}
	return d.B.Kind
}

// String renders the divergence for gate failure messages: the
// (time, component, kind) triple plus both sides' records.
func (d *Divergence) String() string {
	side := func(r *Record) string {
		if r == nil {
			return "<trace ended>"
		}
		return r.String()
	}
	return fmt.Sprintf("event #%d: a: %s | b: %s", d.Index, side(d.A), side(d.B))
}

// FirstDivergence compares two canonical traces record by record and
// returns the first disagreement, or nil when the traces are
// identical (same records, stored input bytes included) — exactly
// when their encodings agree but for the Truncated count. Two runs of the same scenario with
// the same seed must never diverge; a perturbed seed yields a concrete
// (time, component, kind) triple.
func FirstDivergence(a, b *Trace) *Divergence {
	n := min(a.Len(), b.Len())
	for i := 0; i < n; i++ {
		if ra, rb := a.At(i), b.At(i); !ra.equal(&rb) {
			return &Divergence{Index: i, A: a.record(i), B: b.record(i)}
		}
	}
	if a.Len() > n {
		return &Divergence{Index: n, A: a.record(n)}
	}
	if b.Len() > n {
		return &Divergence{Index: n, B: b.record(n)}
	}
	return nil
}

// record returns a copy of record i on the heap.
func (t *Trace) record(i int) *Record {
	r := t.At(i)
	return &r
}
