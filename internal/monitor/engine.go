package monitor

import (
	"repro/internal/logical"
	"repro/internal/trace"
)

// Engine feeds a trace stream to a set of monitors online. It
// satisfies trace.Tap structurally: a simulated world installs a
// trace.Recorder as each kernel's tracer and the engine as that
// recorder's tap (Recorder.SetTap), and a live RecordingEndpoint stream
// attaches the same way — the identical engine in both worlds, which
// is what makes the layer observability rather than a test harness.
// Through the tap the engine observes the records the recorder
// sequenced and stored, with each record's component id beside it, so
// it checks exactly the recorded stream and its monitors index their
// per-component state by id.
//
// Observe is the tap hook. The offline feeds — TraceEvent, for an
// engine with no recorder in front, and Evaluate — give components ids
// in the engine's own name table instead; only TraceEvent digests
// payloads and keeps its own per-component sequence numbers, stamping
// a reused scratch record. An engine is fed by the tap or by an
// offline feed, never both, since the two number components apart.
// Neither path allocates once every component has been seen
// (TestMonitorZeroAllocs).
//
// An engine takes no lock. It has one feeder, whose calls are
// serialized already: every recorder, kernel-installed or live, calls
// its tap from its kernel's goroutine, and Finish and Verdicts run
// after the stream ends. Monitors must not call
// back into the engine, the recorder or the kernel.
//
// An Engine (like its monitors) is single-use: under a federation each
// partition kernel gets its own engine, and MergeVerdicts folds the
// per-engine verdicts into the mode-independent whole.
type Engine struct {
	// ids numbers the offline feeds' components by name; seqs holds
	// TraceEvent's last sequence number of each, by id.
	ids      map[string]uint32
	seqs     []uint64
	scratch  trace.Record // TraceEvent's record
	monitors []Monitor
	reps     []*Reporter
	done     bool
}

// NewEngine returns an engine evaluating the given monitors. Monitors
// are stateful — pass freshly built instances, never ones shared with
// another engine.
func NewEngine(monitors ...Monitor) *Engine {
	e := &Engine{
		monitors: monitors,
		reps:     make([]*Reporter, len(monitors)),
	}
	for i, m := range monitors {
		e.reps[i] = &Reporter{v: Verdict{Monitor: m.Name()}}
	}
	return e
}

// intern returns the offline feeds' id of the named component, adding
// it on first sight.
func (e *Engine) intern(component string) uint32 {
	c, ok := e.ids[component]
	if !ok {
		if e.ids == nil {
			e.ids = make(map[string]uint32)
		}
		c = uint32(len(e.seqs))
		e.ids[component] = c
		e.seqs = append(e.seqs, 0)
	}
	return c
}

// TraceEvent feeds one event to an engine with no recorder in front:
// it stamps the event with the component's next sequence number (the
// recorder's assignment, so anchors in verdicts name the records a
// recorded trace of the same stream holds) and feeds it to every
// monitor. Events arriving after Finish are ignored.
func (e *Engine) TraceEvent(at logical.Time, component, kind string, payload []byte) {
	if e.done {
		return
	}
	c := e.intern(component)
	e.seqs[c]++
	e.scratch = trace.Record{Time: at, Seq: e.seqs[c], Component: component, Kind: kind, Digest: trace.Digest(payload)}
	e.Observe(c, &e.scratch)
}

// Observe is the trace.Tap hook: it feeds an already-sequenced record
// of component comp — one a recorder just appended — to every monitor.
// Records arriving after Finish are ignored.
func (e *Engine) Observe(comp uint32, r *trace.Record) {
	if e.done {
		return
	}
	for i, m := range e.monitors {
		m.Observe(comp, r, e.reps[i])
	}
}

// Finish flushes every monitor's pending obligations (flagging them as
// unresolved — see the package comment) and freezes the engine. It is
// idempotent; events arriving afterwards are dropped.
func (e *Engine) Finish() {
	if !e.done {
		e.done = true
		for i, m := range e.monitors {
			m.Flush(e.reps[i])
		}
	}
}

// Verdicts returns a copy of every monitor's verdict, in registration
// order. Call Finish first for final verdicts; before it, from the
// feeder's goroutine, the verdicts reflect the stream so far (pending
// obligations not yet flagged).
func (e *Engine) Verdicts() []Verdict {
	out := make([]Verdict, len(e.reps))
	for i, rp := range e.reps {
		out[i] = rp.v
		out[i].Samples = append([]Violation(nil), rp.v.Samples...)
	}
	return out
}
