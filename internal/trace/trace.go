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
//     merged Trace copies no record: it shares its recorders' rings of
//     32-byte slots, with their name and stored-input tables, keeps them
//     alive, and adds a 4-byte order index per record. A recorder copies
//     its ring before its first record after a merge, so a Trace is
//     immutable once built: Len and At read it, At resolving one Record
//     without allocating, and Prefix, Filter and WithoutTimes read the
//     same rings.
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
// A trace copies no record. It shares its recorders' rings — the
// pointer-free 32-byte slots, the per-recorder name tables and the
// stored-input side tables — and keeps them alive, and holds one 4-byte
// order index: entry i is the global position (ring offset plus ring
// index) of canonical record i in the concatenated rings. A recorder
// copies its ring before it records again after a merge, so a Trace is
// immutable once built: Len and At read it, At resolving one record
// without allocating, and Prefix, Filter and WithoutTimes return traces
// over the same rings (a cut order index, a filtered order index, and a
// flag At applies).
type Trace struct {
	// Truncated counts records evicted from ring buffers before the
	// merge (0 = complete). A truncated trace is still canonical but
	// mode-independence only holds for complete traces.
	Truncated uint64
	srcs      []source // the rings the records live in, by global position
	order     []uint32 // the global position of each record, in canonical order
	untimed   bool     // At reports every time as 0 (WithoutTimes)
}

// source is one ring a Trace reads: a recorder's slots, name tables and
// stored inputs as they were at the merge, or a decoded trace's.
type source struct {
	start  int // the global position of ring[0]
	ring   []slot
	comps  []string            // component names by slot.comp
	kinds  []string            // kind names by slot.kind&^storedBit
	inputs map[int]storedInput // by ring index, for slots with storedBit
}

// maxPositions bounds the total ring capacity one Trace can address:
// its order index holds 4-byte global positions.
const maxPositions = 1 << 32

// mergeStream is one recorder's records during a Merge: ring indices
// in canonical order and the name prefix of each of the recorder's
// components.
type mergeStream struct {
	src    *source
	idx    []uint32
	prefix []uint64 // by component id
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
	if s != u || a.comp != b.comp {
		if c := strings.Compare(s.src.comps[a.comp], u.src.comps[b.comp]); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.seq, b.seq)
}

// compare orders ring slots a and b of the stream canonically.
func (s *mergeStream) compare(a, b uint32) int {
	return compareSlots(s, &s.src.ring[a], s, &s.src.ring[b])
}

// sort puts the stream into canonical order. A kernel-driven stream is
// already time-ordered (kernel time never goes backwards), so only its
// equal-time runs need sorting by (component, seq); a stream whose
// times decrease — a writer that stamps its own times out of order —
// falls back to a full sort.
func (s *mergeStream) sort(timeOrdered bool) {
	if !timeOrdered {
		slices.SortFunc(s.idx, s.compare)
		return
	}
	ring := s.src.ring
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
// Merge copies no record: each ring is read in place, after its
// recorder's one writer has returned from the kernel's Run, and marked
// shared, so the recorder copies it before its next record and the
// trace keeps the slots it read. Each ring is put into canonical order as a list of
// ring indices (see mergeStream.sort), and the k sorted streams are
// merged head by head into the trace's order index, 4 bytes per record;
// the largest stream's index list sorts in place in the order index, so
// a single stream's list is the order itself. Components compare
// by an integer name prefix computed once per component (namePrefix),
// and by name only when two prefixes agree. Equal keys — a contract
// violation: one component on two recorders — resolve to the earlier
// argument, so the output stays deterministic.
//
// The order index addresses the merged rings' slots with 4-byte
// positions, so Merge panics when their total capacity exceeds 2^32
// slots.
func Merge(recorders ...*Recorder) *Trace {
	t := &Trace{}
	total, ncomps, nsrcs, positions, tail := 0, 0, 0, 0, 0
	for i, r := range recorders {
		t.Truncated += r.dropped
		if r.count > 0 {
			total += r.count
			ncomps += len(r.comps)
			nsrcs++
			positions += len(r.ring)
			if r.count > recorders[tail].count {
				tail = i
			}
		}
	}
	if total == 0 {
		return t
	}
	if uint64(positions) > maxPositions {
		panic(fmt.Sprintf("trace: Merge over rings of %d slots in total: the order index addresses at most 2^32", positions))
	}
	// The largest stream sorts its index list in place at the tail of the
	// order index, the others theirs in one scratch list. The merge
	// writes order[n] after n records have left the streams, which is
	// never past the tail stream's unread head, so a lone stream's list
	// is the order itself.
	t.order = make([]uint32, total)
	scratch := make([]uint32, total-recorders[tail].count)
	prefixes := make([]uint64, ncomps)
	streams := make([]mergeStream, nsrcs)
	t.srcs = make([]source, nsrcs)
	start, i := 0, 0
	for ri, r := range recorders {
		if r.count == 0 {
			continue
		}
		r.shared = true
		src := &t.srcs[i]
		*src = source{start: start, ring: r.ring, comps: r.comps, kinds: r.kinds, inputs: r.inputs}
		start += len(r.ring)
		s := &streams[i]
		i++
		s.src = src
		s.prefix, prefixes = prefixes[:len(r.comps)], prefixes[len(r.comps):]
		for c, name := range r.comps {
			s.prefix[c] = namePrefix(name)
		}
		if ri == tail {
			s.idx = t.order[total-r.count:]
		} else {
			s.idx, scratch = scratch[:r.count], scratch[r.count:]
		}
		timeOrdered := true
		for j := range s.idx {
			s.idx[j] = uint32((r.head + j) % len(r.ring))
			if j > 0 && r.ring[s.idx[j]].time < r.ring[s.idx[j-1]].time {
				timeOrdered = false
			}
		}
		s.sort(timeOrdered)
	}
	if len(streams) == 1 {
		return t // one ring at global position 0: its indices are the positions
	}
	for n := range t.order {
		var best *mergeStream
		var head *slot
		for i := range streams {
			s := &streams[i]
			if len(s.idx) == 0 {
				continue
			}
			h := &s.src.ring[s.idx[0]]
			if best == nil || compareSlots(s, h, best, head) < 0 {
				best, head = s, h
			}
		}
		t.order[n] = uint32(best.src.start) + best.idx[0]
		best.idx = best.idx[1:]
	}
	return t
}

// locate returns the index of the source holding global position pos
// and the ring index of pos in it. A trace has one source per merged
// recorder, a handful, so it scans their starts from the last.
func (t *Trace) locate(pos uint32) (k, j int) {
	k = len(t.srcs) - 1
	for t.srcs[k].start > int(pos) {
		k--
	}
	return k, int(pos) - t.srcs[k].start
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.order) }

// At returns record i in canonical order. The record shares the
// trace's names and stored bytes, so At allocates nothing; the caller
// must not modify its Data.
func (t *Trace) At(i int) Record {
	k, j := t.locate(t.order[i])
	src := &t.srcs[k]
	s := &src.ring[j]
	r := Record{
		Time: s.time, Seq: s.seq, Digest: s.digest,
		Component: src.comps[s.comp], Kind: src.kinds[s.kind&^storedBit],
	}
	if t.untimed {
		r.Time = 0
	}
	if s.kind&storedBit != 0 {
		in := src.inputs[j]
		r.Src, r.Data = in.src, in.data
	}
	return r
}

// Prefix returns the trace's first n records as a trace over the same
// rings: it cuts the order index and copies nothing.
func (t *Trace) Prefix(n int) *Trace {
	out := *t
	out.order = t.order[:n:n]
	return &out
}

// Filter returns a new trace holding only records of the given kind,
// preserving canonical order: a filtered order index over t's rings.
func (t *Trace) Filter(kind string) *Trace {
	kinds := make([]int, len(t.srcs)) // each source's id of kind, or -1
	for i := range t.srcs {
		kinds[i] = slices.Index(t.srcs[i].kinds, kind)
	}
	out := *t
	out.order = nil
	for _, pos := range t.order {
		k, j := t.locate(pos)
		if int(t.srcs[k].ring[j].kind&^storedBit) == kinds[k] {
			out.order = append(out.order, pos)
		}
	}
	return &out
}

// WithoutTimes returns the trace with every record's time reported as
// zero (canonical record order preserved); it shares t's rings and
// order index. Replay comparisons use it: a replayed run reproduces the
// recorded event *contents and order*, while event times shift from
// wall-derived to simulated.
func (t *Trace) WithoutTimes() *Trace {
	out := *t
	out.untimed = true
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
