// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, sequence number). Simulated threads of control are Processes:
// coroutines that run strictly one at a time, switching back to the
// kernel whenever they block on a simulated operation (Sleep, WaitUntil,
// Park, ...). Because exactly one entity runs at any instant and
// all ties are broken by the deterministic sequence counter, a simulation
// is a pure function of its seed and inputs — the Go runtime scheduler has
// no influence on results.
//
// This substrate stands in for the paper's physical testbed (two
// MinnowBoard platforms and an Ethernet switch): it simulates physical
// time, drifting local clocks, network latency and OS thread dispatch with
// seeded randomness, which is exactly the machinery needed to reproduce
// the nondeterministic interleavings studied in the paper — reproducibly.
package des

import (
	"fmt"
	"unsafe"

	"repro/internal/logical"
)

// Event is a scheduled unit of work. It can be canceled before it fires.
// The work is a closure-free (fn, arg) pair: fn is a long-lived
// (typically package-level) function and arg its per-event argument,
// usually a pooled carrier or an already-live pointer. A plain closure
// rides the same pair as (Call, closure).
type Event struct {
	k      *Kernel
	at     logical.Time
	seq    uint64
	fn     func(arg any)
	arg    any
	daemon bool
	// transient marks events no caller holds a handle to (Post and
	// process start events), so the kernel recycles the Event through
	// its free list after firing. Cancel can never reach a transient
	// event, which is what makes recycling safe.
	transient bool
	// pos is the event's position in the kernel's queue: it lets Cancel
	// find a queued event, and -1 tells a removed one.
	pos int
}

// Cancel prevents the event from firing by taking it out of the
// kernel's queue at once, so the queue only ever holds live events and
// caller-owned storage such as a process's wake event is free for reuse
// as soon as it is canceled. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e.pos < 0 {
		return
	}
	k := e.k
	if !e.daemon {
		k.pending--
	}
	k.queue.removeAt(e.pos)
}

// eventQueue is the kernel's priority queue type: a 4-ary min-heap over
// *Event specialized to the (at, seq) key, replacing container/heap to
// eliminate the per-push/pop interface dispatch (Less/Swap/Len calls
// through an interface, plus the any-boxing of Push/Pop operands) on
// the hottest kernel path. Behaviour is provably identical to the old
// binary heap: (at, seq) is a strict total order — seq is unique per
// kernel — so every correct heap pops events in exactly the same
// sequence, which is what keeps every golden byte-identical across the
// swap. The 4-ary layout halves tree depth, trading one extra child
// comparison per level for better cache locality on sift-down. Each
// event keeps its heap position in Event.pos.
type eventQueue struct {
	h []*Event
}

// before reports the strict (at, seq) order. Keys are never equal:
// seq is unique per kernel.
func (a *Event) before(b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, restoring the heap by sifting up.
func (q *eventQueue) push(e *Event) {
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !e.before(p) {
			break
		}
		h[i] = p
		p.pos = i
		i = parent
	}
	h[i] = e
	e.pos = i
	q.h = h
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() *Event {
	min := q.h[0]
	q.removeAt(0)
	return min
}

// removeAt deletes the event at heap position i (pop, Cancel): the tail
// element takes its place and is sifted in either direction as needed.
func (q *eventQueue) removeAt(i int) {
	h := q.h
	h[i].pos = -1
	n := len(h) - 1
	e := h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	if i == n {
		return
	}
	// Sift e up from i, then down if it did not move.
	j := i
	for j > 0 {
		parent := (j - 1) >> 2
		p := h[parent]
		if !e.before(p) {
			break
		}
		h[j] = p
		p.pos = j
		j = parent
	}
	if j == i {
		for {
			c := j<<2 + 1
			if c >= n {
				break
			}
			best := c
			bestEv := h[c]
			for m := c + 1; m < c+4 && m < n; m++ {
				if h[m].before(bestEv) {
					best = m
					bestEv = h[m]
				}
			}
			if !bestEv.before(e) {
				break
			}
			h[j] = bestEv
			bestEv.pos = j
			j = best
		}
	}
	h[j] = e
	e.pos = j
}

// Tracer receives logical trace events from a kernel (see
// Kernel.Trace). The canonical implementation is the trace package's
// Recorder, which sequences each event once and hands the finished
// record to its tap (a monitor engine); the indirection keeps des free
// of higher-layer imports. Implementations must not call back into the
// kernel.
//
// Components are registered once (Component, usually while the world
// is built) and traced by the dense id registration returns, so the
// per-event path hashes no string. A tracer installed on a kernel has
// one writer, that kernel's goroutine: TraceID need not lock, and
// whoever reads the tracer's state does so after Run returns.
type Tracer interface {
	// Component registers a component label and returns its dense id.
	// Each label is registered once per tracer.
	Component(name string) uint32
	// TraceID records one logical event: the kernel's current time,
	// the emitting component's id, the event kind and the payload
	// (which implementations digest, not retain).
	TraceID(at logical.Time, comp uint32, kind string, payload []byte)
}

// Kernel is the simulation engine. Create one with NewKernel, spawn
// processes and schedule events, then call Run.
type Kernel struct {
	kernelState
	// _ pads the kernel to whole cache lines on any word size
	// (TestPartitionStateFillsCacheLines). A federation's kernels run on
	// their own goroutines and are allocated beside each other and
	// beside the partitions' networks; sharing a line with one of those
	// would bounce it between cores on every event.
	_ [64 - unsafe.Sizeof(kernelState{})%64]byte
}

// kernelState is a Kernel's fields, which Kernel pads.
type kernelState struct {
	now      logical.Time
	seq      uint64
	queue    eventQueue
	pending  int // non-daemon events still queued
	procs    []*Process
	running  bool
	fired    uint64
	rootRand *Rand
	// free recycles transient Events: scheduling is the hot path shared by
	// every federated kernel, and pooling removes the per-event allocation.
	free []*Event
	// idle holds the carriers of finished processes, each waiting to run
	// the next process to start (see Process.start).
	idle []*carrier
	// tracer, when set, receives Trace calls (nil = tracing disabled;
	// the hot-path cost is one nil check).
	tracer Tracer
}

// NewKernel returns a kernel whose clock starts at time zero and whose
// random streams all derive from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{kernelState: kernelState{rootRand: NewRand(seed)}}
}

// Now returns the current simulated time.
func (k *Kernel) Now() logical.Time { return k.now }

// EventsFired returns the number of events executed so far (useful for
// progress accounting and benchmarks).
func (k *Kernel) EventsFired() uint64 { return k.fired }

// Rand derives a named, independent random stream from the kernel seed.
// The same (seed, label) pair always yields the same stream.
func (k *Kernel) Rand(label string) *Rand { return k.rootRand.Stream(label) }

// SetTracer installs (or, with nil, removes) the kernel's trace sink.
// Under a Federation each partition kernel gets its own tracer, and
// the per-partition traces merge into the canonical whole (see the
// trace package).
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Component registers a component label with the kernel's tracer and
// returns the id Trace takes (zero with no tracer installed). Install
// the tracer first, and register each label once: a component that
// outlives one incarnation keeps its id, so its records continue one
// stream.
func (k *Kernel) Component(name string) uint32 {
	if k.tracer == nil {
		return 0
	}
	return k.tracer.Component(name)
}

// Trace emits one logical event of the registered component comp to
// the kernel's tracer, stamped with the current simulated time. With
// no tracer installed it is a single nil check, so instrumented
// components may call it unconditionally. Component labels must be
// stable across execution modes (and each component must live on
// exactly one kernel of a federation) for the merged trace to be
// mode-independent.
func (k *Kernel) Trace(comp uint32, kind string, payload []byte) {
	if k.tracer != nil {
		k.tracer.TraceID(k.now, comp, kind, payload)
	}
}

// At schedules fn to run at simulated time t. Scheduling in the past (or
// present) fires the event at the current time but never before events
// already queued for that time. The returned Event may be canceled.
func (k *Kernel) At(t logical.Time, fn func()) *Event {
	return k.post(nil, t, Call, fn, false, false)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d logical.Duration, fn func()) *Event {
	return k.At(k.now.Add(d), fn)
}

// AfterDaemon schedules a housekeeping event d from now. Daemon events
// fire in normal time order but do not keep the simulation alive: Run
// stops once only daemon events remain. Self-rescheduling services
// (clock sync, SD re-offers, TTL expiry) use daemon events so that
// RunAll terminates.
func (k *Kernel) AfterDaemon(d logical.Duration, fn func()) *Event {
	return k.post(nil, k.now.Add(d), Call, fn, true, false)
}

// Post schedules fn(arg) at simulated time t (the current time if t lies
// in the past) without returning a handle. The event cannot be canceled;
// in exchange the kernel recycles its Event after firing. Because fn is
// typically a package-level function and arg a pooled carrier or an
// already-live pointer, the schedule+fire round trip allocates nothing —
// the scheduling form of every hot path: datagram delivery, executor
// dispatch, future resolution, process wakeups and federation batch
// injection. A plain closure posts as Post(t, Call, fn).
func (k *Kernel) Post(t logical.Time, fn func(arg any), arg any) {
	k.post(nil, t, fn, arg, false, true)
}

// Call is the (fn, arg) body of a plain closure: Post(t, Call, fn) runs
// fn() at t. A func value is one word, so it rides the arg slot without
// boxing and the event costs nothing beyond the closure itself.
func Call(a any) { a.(func())() }

// post is the kernel's one scheduling path: every event takes its
// sequence number here, at the moment it is scheduled. e is optional
// caller-owned storage (process wake events): it is reused in place
// unless its previous incarnation is still queued, in which case a fresh
// Event is allocated; either way the returned handle is the one to
// cancel. Cancel dequeues at once, so a canceled wake event is reused.
// Transient events come from the free list and return to it after
// firing.
func (k *Kernel) post(e *Event, t logical.Time, fn func(any), arg any, daemon, transient bool) *Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	if e == nil || e.k != nil && e.pos >= 0 {
		if n := len(k.free); transient && n > 0 {
			e = k.free[n-1]
			k.free[n-1] = nil
			k.free = k.free[:n-1]
		} else {
			e = new(Event)
		}
	}
	*e = Event{k: k, at: t, seq: k.seq, fn: fn, arg: arg, daemon: daemon, transient: transient}
	k.queue.push(e)
	if !daemon {
		k.pending++
	}
	return e
}

// ReserveEvents grows the transient-event free list so that the next n
// Post calls allocate nothing. The federation coordinator uses it to
// inject drained cross-partition message batches without per-message
// allocations; it is also safe (and cheap) to call speculatively.
func (k *Kernel) ReserveEvents(n int) {
	short := n - len(k.free)
	if short <= 0 {
		return
	}
	block := make([]Event, short)
	for i := range block {
		k.free = append(k.free, &block[i])
	}
}

// fire dequeues the head event and runs it — the one firing body shared
// by Run and RunLive. The queue holds no canceled event (Cancel dequeues
// it). A fired transient event returns to the free list; handles returned by At,
// After and AfterDaemon are never pooled, because they may be held (and
// canceled) long after firing, and reusing them would let a stale
// Cancel hit an unrelated future event.
func (k *Kernel) fire() {
	e := k.queue.pop()
	if !e.daemon {
		k.pending--
	}
	if e.at > k.now {
		k.now = e.at
	}
	k.fired++
	e.fn(e.arg)
	if e.transient {
		e.fn = nil
		e.arg = nil
		k.free = append(k.free, e)
	}
}

// Run executes queued events in (time, sequence) order until only daemon
// events remain or the next event lies strictly beyond the until
// horizon. It returns the simulated time at which it stopped.
// Run must not be called reentrantly and the kernel must not be shared
// across goroutines other than through Process operations.
func (k *Kernel) Run(until logical.Time) logical.Time {
	if k.running {
		panic("des: Kernel.Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for len(k.queue.h) > 0 && k.pending > 0 && k.queue.h[0].at <= until {
		k.fire()
	}
	if k.now < until && until < logical.Forever {
		// The simulation went quiescent before the horizon; advance the
		// clock so that successive Run calls observe monotonic time.
		k.now = until
	}
	return k.now
}

// RunAll executes events until only daemon events remain.
func (k *Kernel) RunAll() logical.Time { return k.Run(logical.Forever) }

// NextEventTime returns the firing time of the earliest queued event;
// every queued event is live (Cancel dequeues). The federation
// coordinator uses the result as the partition's earliest-output-time
// bound, so keeping it tight — never a stale canceled timestamp —
// directly widens the windows granted to downstream partitions.
func (k *Kernel) NextEventTime() (logical.Time, bool) {
	if len(k.queue.h) == 0 {
		return 0, false
	}
	return k.queue.h[0].at, true
}

// RunLive executes every queued event — daemon events included — whose
// time is at or before until, then advances the clock to until. Unlike
// Run it does not stop at quiescence: it is the step function for
// real-time drivers (see RealTime), which interleave RunLive with
// waiting on the physical clock and injecting external events.
func (k *Kernel) RunLive(until logical.Time) logical.Time {
	if k.running {
		panic("des: Kernel.RunLive called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for len(k.queue.h) > 0 && k.queue.h[0].at <= until {
		k.fire()
	}
	if k.now < until {
		k.now = until
	}
	return k.now
}

// Shutdown unblocks every parked or sleeping process with a termination
// signal so that its body unwinds, then ends the kernel's idle carriers
// (see Process), so the kernel leaves no goroutine behind. It must
// be called once the kernel's runs are over: a kernel dropped without
// Shutdown keeps a goroutine per blocked process and per idle carrier —
// one, after a run whose processes all finished one at a time. A process
// that never started holds no carrier and needs none of this. User
// process code must not swallow panics of type Killed.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if p.state == procBlocked || p.state == procSleeping {
			p.kill()
		}
	}
	for _, c := range k.idle {
		c.stop()
	}
	k.idle = nil
}

// Pending reports the number of queued non-daemon events —
// the count that keeps Run alive. The federation coordinator uses it for
// global quiescence detection across kernels.
func (k *Kernel) Pending() int { return k.pending }

// String summarizes the kernel state for diagnostics.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(now=%s queued=%d fired=%d)", k.now, len(k.queue.h), k.fired)
}
