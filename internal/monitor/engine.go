package monitor

import (
	"sync"

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
// sequenced and stored, so it checks exactly the recorded stream.
//
// Observe is the tap hook. TraceEvent is the standalone des.Tracer
// hook for an engine with no recorder in front: only there does the
// engine digest payloads and keep its own per-component sequence
// numbers, stamping a reused scratch record. Neither path allocates
// once every component has been seen (TestMonitorZeroAllocs). Monitors
// run under the engine lock and must not call back into the engine,
// the recorder or the kernel.
//
// An Engine (like its monitors) is single-use: under a federation each
// partition kernel gets its own engine, and MergeVerdicts folds the
// per-engine verdicts into the mode-independent whole.
type Engine struct {
	mu       sync.Mutex
	seqs     map[string]uint64 // TraceEvent's sequence numbers
	scratch  trace.Record      // TraceEvent's record
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

// TraceEvent is the standalone des.Tracer hook: it stamps the event
// with the component's next sequence number (the recorder's
// assignment, so anchors in verdicts name the records a recorded trace
// of the same stream holds) and feeds it to every monitor. Events
// arriving after Finish are ignored.
func (e *Engine) TraceEvent(at logical.Time, component, kind string, payload []byte) {
	d := trace.Digest(payload)
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return
	}
	if e.seqs == nil {
		e.seqs = make(map[string]uint64)
	}
	seq := e.seqs[component] + 1
	e.seqs[component] = seq
	e.scratch = trace.Record{Time: at, Seq: seq, Component: component, Kind: kind, Digest: d}
	for i, m := range e.monitors {
		m.Observe(&e.scratch, e.reps[i])
	}
	e.mu.Unlock()
}

// Observe is the trace.Tap hook: it feeds an already-sequenced record —
// one a recorder just appended, or one of a decoded trace during
// replay — to every monitor. Records arriving after Finish are
// ignored.
func (e *Engine) Observe(r *trace.Record) {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return
	}
	for i, m := range e.monitors {
		m.Observe(r, e.reps[i])
	}
	e.mu.Unlock()
}

// Finish flushes every monitor's pending obligations (flagging them as
// unresolved — see the package comment) and freezes the engine. It is
// idempotent; events arriving afterwards are dropped.
func (e *Engine) Finish() {
	e.mu.Lock()
	if !e.done {
		e.done = true
		for i, m := range e.monitors {
			m.Flush(e.reps[i])
		}
	}
	e.mu.Unlock()
}

// Verdicts returns a copy of every monitor's verdict, in registration
// order. Call Finish first for final verdicts; mid-run the verdicts
// reflect the stream so far (pending obligations not yet flagged).
func (e *Engine) Verdicts() []Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Verdict, len(e.reps))
	for i, rp := range e.reps {
		out[i] = rp.v
		out[i].Samples = append([]Violation(nil), rp.v.Samples...)
	}
	return out
}
