package trace

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

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

// Recorder captures logical events into a pooled ring buffer. It
// implements des.Tracer, so a kernel forwards its Trace calls here;
// the endpoint wrappers call it directly with wall-derived times.
//
// The ring mirrors the kernel's Post free-list discipline:
// record slots are allocated once at construction and recycled in
// place — appending a record on the hot path performs zero
// allocations (asserted by TestTraceRecordZeroAllocs). When the ring
// is full the oldest record is evicted (its slot is the free-list
// entry handed to the newcomer) and Dropped counts the loss; size the
// capacity so complete runs never evict, because mode-independence of
// the merged trace only holds for complete traces.
//
// A Recorder is safe for concurrent use: live recording writes from
// both a socket-reader goroutine (inputs) and the kernel goroutine
// (outputs). Under deterministic simulation only the owning kernel's
// goroutine writes, and the uncontended mutex stays cheap.
type Recorder struct {
	id      uint64 // creation order: the lock order of Merge
	mu      sync.Mutex
	ring    []Record
	head    int // index of the oldest record
	count   int
	dropped uint64
	seqs    map[string]uint64
	tap     Tap
}

// Tap receives a copy of every event appended to a Recorder (see
// SetTap). The monitor engine implements it, which is how online
// runtime verification attaches to a live RecordingEndpoint stream:
// the endpoints keep writing to the concrete Recorder, and the tap
// observes the same stream without a second instrumentation seam.
type Tap interface {
	// TraceEvent mirrors the des.Tracer hook: one appended record's
	// time, component, kind and payload (the full input bytes for
	// stored-input records, so digests agree with the ring's).
	TraceEvent(at logical.Time, component, kind string, payload []byte)
}

// SetTap installs a sink that observes every subsequently appended
// record, in exact append order (the tap runs under the recorder's
// lock — it must not call back into the recorder). A nil tap detaches.
func (r *Recorder) SetTap(t Tap) {
	r.mu.Lock()
	r.tap = t
	r.mu.Unlock()
}

// recorderIDs numbers recorders in creation order.
var recorderIDs atomic.Uint64

// NewRecorder creates a recorder whose ring holds up to capacity
// records (minimum 16). The full ring is allocated up front so the
// recording hot path never grows it.
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{
		id:   recorderIDs.Add(1),
		ring: make([]Record, capacity),
		seqs: make(map[string]uint64),
	}
}

// slot returns the ring slot for the next record, evicting the
// oldest when full. Called with mu held.
func (r *Recorder) slot() *Record {
	var i int
	if r.count < len(r.ring) {
		i = (r.head + r.count) % len(r.ring)
		r.count++
	} else {
		// Recycle the oldest slot — the free-list hand-off.
		i = r.head
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	return &r.ring[i]
}

// TraceEvent appends a digest-only record for an event of the given
// component at logical time at. It is the des.Tracer hook: kernels
// forward Kernel.Trace calls here with their current time. The
// payload is digested, never retained, and the call performs no
// allocations once the component has been seen.
func (r *Recorder) TraceEvent(at logical.Time, component, kind string, payload []byte) {
	d := Digest(payload)
	r.mu.Lock()
	seq := r.seqs[component] + 1
	r.seqs[component] = seq
	*r.slot() = Record{Time: at, Seq: seq, Component: component, Kind: kind, Digest: d}
	if r.tap != nil {
		r.tap.TraceEvent(at, component, kind, payload)
	}
	r.mu.Unlock()
}

// RecordInput appends a stored-payload record for a captured input:
// data holds the full marshaled message (copied) so a Replayer can
// re-inject it, and src names the sender. Inputs are the only records
// that keep their bytes — everything else is digested.
func (r *Recorder) RecordInput(at logical.Time, component, kind, src string, data []byte) {
	r.recordInputOwned(at, component, kind, src, append([]byte(nil), data...))
}

// recordInputOwned is RecordInput without the defensive copy: the
// caller hands over ownership of data (it must never be mutated
// afterwards). The recording endpoints use it with freshly marshaled
// buffers to avoid copying every captured input twice.
func (r *Recorder) recordInputOwned(at logical.Time, component, kind, src string, data []byte) {
	d := Digest(data)
	r.mu.Lock()
	seq := r.seqs[component] + 1
	r.seqs[component] = seq
	*r.slot() = Record{
		Time: at, Seq: seq, Component: component, Kind: kind,
		Digest: d, Src: src, Data: data,
	}
	if r.tap != nil {
		r.tap.TraceEvent(at, component, kind, data)
	}
	r.mu.Unlock()
}

// Len returns the number of records currently buffered.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns the number of records evicted by ring overflow.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// lockAll locks every distinct recorder in creation order — one global
// order, so concurrent merges over overlapping recorder sets cannot
// deadlock — and returns the matching unlock.
func lockAll(recorders []*Recorder) (unlock func()) {
	distinct := make([]*Recorder, 0, len(recorders))
	for _, r := range recorders {
		if !slices.Contains(distinct, r) {
			distinct = append(distinct, r)
		}
	}
	slices.SortFunc(distinct, func(a, b *Recorder) int { return cmp.Compare(a.id, b.id) })
	for _, r := range distinct {
		r.mu.Lock()
	}
	return func() {
		for _, r := range distinct {
			r.mu.Unlock()
		}
	}
}

// Trace copies the recorder into a canonical trace (see Merge for
// combining several partition recorders).
func (r *Recorder) Trace() *Trace { return Merge(r) }
