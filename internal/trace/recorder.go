package trace

import (
	"bytes"
	"maps"
	"slices"
	"unsafe"

	"repro/internal/logical"
)

// fnvOffset and fnvPrime are the FNV-1a constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Digest computes the FNV-1a digest of a payload — the hash every
// digest-only trace record stores in place of the bytes.
func Digest(payload []byte) uint64 {
	h := fnvOffset
	for _, b := range payload {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Recorder captures logical events into a pointer-free ring buffer. It
// implements des.Tracer, so a kernel forwards its Trace calls here;
// the endpoint wrappers call it directly, with wall-derived times on a
// live run.
//
// A component enters a recorder's name table once. A world registers
// each of its components at build (Component) and its kernel traces by
// the returned dense id (TraceID), so the per-event path indexes slices
// and hashes no string. The string methods (TraceEvent, RecordInput)
// find or add the component by name in a map built on their first
// call; only they use it.
//
// A Recorder is the one place an event is sequenced: it digests the
// payload, assigns the component's next sequence number, stores the
// record and hands the finished record to its Tap (SetTap), so a
// monitor engine observes exactly the recorded stream.
//
// Ring slots are 32 bytes and hold no pointers — time, sequence
// number, digest and the interned ids of the component and kind — so
// the collector never scans the ring. Component and kind names live in
// per-recorder tables, the source and bytes of a stored input in a side
// table keyed by slot, which eviction clears. Merge copies none of it:
// the Trace shares the ring, the name tables and the side table and
// keeps them alive, and Merge marks the ring shared, so the recorder
// copies the ring and the side table before its first record after a
// merge (copy-on-write) and every merged Trace stays immutable while
// recording goes on. The ring is allocated once at construction and
// recycled in place: appending a record on the hot path performs zero
// allocations once its component has been seen and the ring is not
// shared (asserted by TestTraceRecordZeroAllocs and
// TestTraceSurvivesLaterRecording). When the ring is full the oldest
// record is evicted and the merged trace's Truncated counts the loss;
// size the capacity so complete runs never evict, because
// mode-independence of the merged trace only holds for complete traces.
//
// A Recorder takes no lock. It has one writer, a kernel's goroutine:
// a recorder installed as the kernel's tracer is written by its Trace
// calls, and a recording endpoint by the runtime above it, whose
// endpoints all deliver on the kernel's goroutine (ara.NewUDPRuntime
// hands each UDP message over to it first). Merge, Len and Dropped run
// after the kernel's Run returns.
type Recorder struct {
	recorderState
	// _ pads the recorder to whole cache lines on any word size, like
	// des.Kernel: a federated world's recorders are allocated side by
	// side and each is written on every event by its own kernel's
	// goroutine. With 32-bit pointers the allocator prefixes an object
	// of more than 128 bytes that holds pointers with an 8-byte header,
	// which moves it off the line boundary, so the state must stay
	// within 127 bytes there: the tap's scratch record lives behind a
	// pointer.
	_ [64 - unsafe.Sizeof(recorderState{})%64]byte
}

// recorderState is a Recorder's fields, which Recorder pads.
type recorderState struct {
	ring    []slot
	head    int // index of the oldest record
	count   int
	dropped uint64
	// comps and kinds are the name tables slot ids index and seqs
	// holds each component's last sequence number, all by component
	// id. compIDs maps names to ids for the string methods; they build
	// it on first use.
	comps   []string
	compIDs map[string]uint32
	seqs    []uint64
	kinds   []string
	inputs  map[int]storedInput // by ring index, for slots with kind&storedBit
	// shared is set by Merge: a Trace reads ring and inputs, so the
	// next append copies them first.
	shared bool
	tap    *tapSink
}

// tapSink is an installed Tap and the record handed to it. A monitored
// federated world installs one tap per partition at build time, so the
// sinks are allocated side by side, and each record is written on every
// event by its own kernel's goroutine: the sink fills whole cache lines
// too (TestTapSinkFillsCacheLines). Unpadded, the two 112-byte sinks of
// mesh_fed shared a line and its run phase took about 20% longer.
type tapSink struct {
	tap Tap
	rec Record
	_   [64 - (unsafe.Sizeof(Tap(nil))+unsafe.Sizeof(Record{}))%64]byte
}

// slot is one record of a ring. It holds no pointer, so a ring of any
// size adds nothing to the collector's mark work.
type slot struct {
	time   logical.Time
	seq    uint64
	digest uint64
	comp   uint32 // index into the owner's component table
	kind   uint32 // index into the owner's kind table, with storedBit for inputs
}

// storedBit marks a slot whose record keeps its input (source and
// bytes) in its owner's side table.
const storedBit = 1 << 31

// storedInput is the side-table entry of a captured input.
type storedInput struct {
	src  string
	data []byte
}

// Tap observes every record appended to a Recorder (see SetTap). The
// monitor engine implements it: a simulated world installs the
// recorder as the kernel tracer and the engine as its tap, and a live
// RecordingEndpoint stream attaches the same way, so online
// verification sees exactly the recorded stream without a second
// instrumentation seam. Either way the tap runs on the kernel
// goroutine that writes the recorder.
type Tap interface {
	// Observe receives one appended record, sequenced and digested,
	// with the stored input's Src and Data for input records, and
	// beside it the record's component id in the recorder's name
	// table. The record is valid only during the call.
	Observe(comp uint32, r *Record)
}

// SetTap installs a sink that observes every subsequently appended
// record, in exact append order. The tap runs on the recorder's one
// writer goroutine; it must not call back into the recorder. A nil tap
// detaches.
func (r *Recorder) SetTap(t Tap) {
	r.tap = nil
	if t != nil {
		r.tap = &tapSink{tap: t}
	}
}

// NewRecorder creates a recorder whose ring holds up to capacity
// records (minimum 16). The full ring is allocated up front so the
// recording hot path never grows it.
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{recorderState: recorderState{ring: make([]slot, capacity)}}
}

// Component registers a component name and returns its dense id, the
// des.Tracer registration hook. It appends to the name table without
// consulting the string methods' map, so register each name once, and
// before any string-path record of it.
func (r *Recorder) Component(name string) uint32 {
	c := uint32(len(r.comps))
	r.comps = append(r.comps, name)
	r.seqs = append(r.seqs, 0)
	if r.compIDs != nil {
		r.compIDs[name] = c
	}
	return c
}

// compID returns the id of the named component, adding it on first
// sight. The string methods' name map is built here on their first
// call.
func (r *Recorder) compID(name string) uint32 {
	if r.compIDs == nil {
		r.compIDs = make(map[string]uint32, len(r.comps))
		for i, n := range r.comps {
			r.compIDs[n] = uint32(i)
		}
	}
	if c, ok := r.compIDs[name]; ok {
		return c
	}
	return r.Component(name)
}

// kindID returns kind's index in the kind table, adding it on first
// sight. Kinds are a handful of constants, so a scan beats a map.
func (r *Recorder) kindID(kind string) uint32 {
	for i, k := range r.kinds {
		if k == kind {
			return uint32(i)
		}
	}
	r.kinds = append(r.kinds, kind)
	return uint32(len(r.kinds) - 1)
}

// append sequences one event of component c into the next ring slot,
// evicting the oldest record when the ring is full, and returns the
// slot's index.
func (r *Recorder) append(at logical.Time, c uint32, kind string, digest uint64) int {
	if r.shared {
		r.unshare()
	}
	r.seqs[c]++
	var i int
	if r.count < len(r.ring) {
		i = (r.head + r.count) % len(r.ring)
		r.count++
	} else {
		// Recycle the oldest slot, releasing its stored input.
		i = r.head
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
		if r.ring[i].kind&storedBit != 0 {
			delete(r.inputs, i)
		}
	}
	r.ring[i] = slot{time: at, seq: r.seqs[c], digest: digest, comp: c, kind: r.kindID(kind)}
	return i
}

// unshare gives the recorder its own copy of the ring and the input
// side table, which merged traces read, before it writes again. The
// name tables are only ever appended to, so traces and recorder share
// them for good.
func (r *Recorder) unshare() {
	r.ring = slices.Clone(r.ring)
	r.inputs = maps.Clone(r.inputs)
	r.shared = false
}

// TraceID appends a digest-only record for an event of the registered
// component comp at logical time at. It is the des.Tracer hook:
// kernels forward Kernel.Trace calls here with their current time. It
// takes no lock (see Recorder for its one-writer contract). The
// payload is digested, never retained, and the call performs no
// allocations.
func (r *Recorder) TraceID(at logical.Time, comp uint32, kind string, payload []byte) {
	d := Digest(payload)
	i := r.append(at, comp, kind, d)
	if s := r.tap; s != nil {
		s.rec = Record{Time: at, Seq: r.ring[i].seq, Component: r.comps[comp], Kind: kind, Digest: d}
		s.tap.Observe(comp, &s.rec)
	}
}

// TraceEvent is TraceID by component name, for writers that register
// nothing: the recording endpoints and replay. It performs no
// allocations once the component has been seen.
func (r *Recorder) TraceEvent(at logical.Time, component, kind string, payload []byte) {
	r.TraceID(at, r.compID(component), kind, payload)
}

// RecordInput appends a stored-payload record for a captured input:
// data holds the full marshaled message (copied) so a Replayer can
// re-inject it, and src names the sender. An empty input stays a stored
// one (non-nil Data); nil data records the source alone. Inputs are the
// only records that keep their bytes — everything else is digested.
func (r *Recorder) RecordInput(at logical.Time, component, kind, src string, data []byte) {
	r.recordInputOwned(at, component, kind, src, bytes.Clone(data))
}

// recordInputOwned is RecordInput without the defensive copy: the
// caller hands over ownership of data (it must never be mutated
// afterwards). The recording endpoints use it with freshly marshaled
// buffers to avoid copying every captured input twice.
func (r *Recorder) recordInputOwned(at logical.Time, component, kind, src string, data []byte) {
	d := Digest(data)
	c := r.compID(component)
	i := r.append(at, c, kind, d)
	r.ring[i].kind |= storedBit
	if r.inputs == nil {
		r.inputs = make(map[int]storedInput)
	}
	r.inputs[i] = storedInput{src: src, data: data}
	if s := r.tap; s != nil {
		s.rec = Record{
			Time: at, Seq: r.ring[i].seq, Component: component, Kind: kind,
			Digest: d, Src: src, Data: data,
		}
		s.tap.Observe(c, &s.rec)
	}
}

// Len returns the number of records currently buffered.
func (r *Recorder) Len() int { return r.count }

// Dropped returns the number of records the full ring has evicted.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Trace returns the recorder's canonical trace, sharing its ring (see
// Merge, which also combines several partition recorders).
func (r *Recorder) Trace() *Trace { return Merge(r) }
