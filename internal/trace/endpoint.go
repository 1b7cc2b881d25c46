package trace

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// RecordingEndpoint wraps a someip.Endpoint and records every message
// crossing it: inbound messages are captured in full (marshaled
// bytes, sender address — the tagged inputs a replay re-injects) and
// outbound messages as digests (the outputs a replay must reproduce).
// It is installed at runtime construction through
// ara.Config.WrapEndpoint, which is how a live ara.NewUDPRuntime run
// becomes a recorded artifact without touching the runtime.
//
// now supplies record timestamps; for live runs pass the real-time
// driver's Elapsed, for simulated runtimes the kernel's Now. Both
// inbound and outbound records are written on the runtime's kernel
// goroutine, where every endpoint a runtime wraps delivers, so the
// Recorder has its one writer.
type RecordingEndpoint struct {
	inner     someip.Endpoint
	rec       *Recorder
	component string
	now       func() logical.Time
	buf       []byte // outbound marshal scratch, reused across Sends
}

// NewRecordingEndpoint wraps inner so that traffic is recorded into
// rec under the given component label.
func NewRecordingEndpoint(inner someip.Endpoint, rec *Recorder, component string, now func() logical.Time) *RecordingEndpoint {
	return &RecordingEndpoint{inner: inner, rec: rec, component: component, now: now}
}

// Send records the outbound message (digest of its full marshaled
// form, tag trailer included) and forwards it to the wrapped
// endpoint.
func (e *RecordingEndpoint) Send(dst someip.Addr, m *someip.Message) error {
	n := m.WireSize()
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	b := e.buf[:n]
	m.MarshalTo(b)
	e.rec.TraceEvent(e.now(), e.component, KindSend, b)
	return e.inner.Send(dst, m)
}

// OnMessage installs the inbound handler, capturing each message in
// full (re-marshaled, so the stored bytes are exactly what a tagged
// binding would put on the wire) before handing it on.
func (e *RecordingEndpoint) OnMessage(fn func(src someip.Addr, m *someip.Message)) {
	e.inner.OnMessage(func(src someip.Addr, m *someip.Message) {
		// Marshal returns a fresh buffer, so the recorder can take
		// ownership instead of copying a second time.
		e.rec.recordInputOwned(e.now(), e.component, KindRecv, src.String(), m.Marshal())
		fn(src, m)
	})
}

// LocalAddr returns the wrapped endpoint's address.
func (e *RecordingEndpoint) LocalAddr() someip.Addr { return e.inner.LocalAddr() }

// Close closes the wrapped endpoint.
func (e *RecordingEndpoint) Close() error { return e.inner.Close() }

// replayAddr is the substrate-independent address of a replayed peer:
// the string form of the address recorded at capture time, on the
// synthetic "replay" network.
type replayAddr string

// Network names the replay substrate.
func (a replayAddr) Network() string { return "replay" }

// String returns the recorded peer address.
func (a replayAddr) String() string { return string(a) }

// Replayer is a someip.Endpoint that replays a recorded trace into a
// fresh simulated kernel: every stored input record is re-injected as
// a kernel event at (a strictly increasing version of) its recorded
// time, and every outbound send is captured into an output recorder
// for comparison against the recorded run. Build a runtime over it
// with ara.NewEndpointRuntime, register the same service handlers the
// recorded run used, call Start, then run the kernel — the paper's
// pure-function claim says the replayed outputs must match the
// recorded ones (compare with FirstDivergence on WithoutTimes
// traces).
type Replayer struct {
	k      *des.Kernel
	inputs []Record
	out    *Recorder
	buf    []byte

	handler func(src someip.Addr, m *someip.Message)
	closed  bool
	started bool
}

// NewReplayer creates a replayer that will inject recorded's stored
// input records into k and capture outputs into out.
func NewReplayer(k *des.Kernel, recorded *Trace, out *Recorder) *Replayer {
	r := &Replayer{k: k, out: out}
	for i := 0; i < recorded.Len(); i++ {
		if rec := recorded.At(i); rec.Data != nil {
			r.inputs = append(r.inputs, rec)
		}
	}
	return r
}

// Inputs returns the number of stored input records the replayer will
// inject.
func (r *Replayer) Inputs() int { return len(r.inputs) }

// Start decodes every stored input and schedules its injection. The
// installed message handler (the runtime's receive path) runs as a
// kernel event per input, exactly as a simulated transport would
// deliver it. Injection times are made strictly increasing so two
// inputs recorded at the same wall nanosecond keep their capture
// order. Start must be called after the runtime is built (so the
// handler is installed) and before the kernel runs.
func (r *Replayer) Start() error {
	if r.started {
		return errors.New("trace: Replayer.Start called twice")
	}
	r.started = true
	last := logical.Time(-1)
	for i := range r.inputs {
		rec := &r.inputs[i]
		m, err := someip.UnmarshalTagged(rec.Data)
		if err != nil {
			return fmt.Errorf("trace: replay input #%d (%s): %w", i, rec.Component, err)
		}
		at := rec.Time
		if at <= last {
			at = last + 1
		}
		last = at
		src := replayAddr(rec.Src)
		component := rec.Component
		kind := rec.Kind
		data := rec.Data
		r.k.At(at, func() {
			// Re-record the injected input so the replayed trace is
			// comparable to the recorded one record-for-record.
			r.out.RecordInput(r.k.Now(), component, kind, string(src), data)
			if r.handler != nil && !r.closed {
				r.handler(src, m)
			}
		})
	}
	return nil
}

// Send captures the outbound message into the output recorder; the
// replay substrate has no wire, so nothing is transmitted. The digest
// covers the full marshaled message, tag trailer included — the same
// bytes the recorded run digested.
func (r *Replayer) Send(dst someip.Addr, m *someip.Message) error {
	if r.closed {
		return errors.New("trace: send on closed Replayer")
	}
	n := m.WireSize()
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	m.MarshalTo(b)
	component := componentOf(r.inputs)
	r.out.TraceEvent(r.k.Now(), component, KindSend, b)
	return nil
}

// componentOf returns the component label the replayed inputs were
// recorded under (a replayed endpoint serves one component).
func componentOf(inputs []Record) string {
	if len(inputs) > 0 {
		return inputs[0].Component
	}
	return "replay"
}

// OnMessage installs the handler injected inputs are delivered to.
func (r *Replayer) OnMessage(fn func(src someip.Addr, m *someip.Message)) { r.handler = fn }

// LocalAddr returns the synthetic replay address.
func (r *Replayer) LocalAddr() someip.Addr { return replayAddr("replay") }

// Close stops delivery of further injections and rejects sends.
func (r *Replayer) Close() error {
	r.closed = true
	return nil
}

// Replayer and RecordingEndpoint are transport seams.
var (
	_ someip.Endpoint = (*RecordingEndpoint)(nil)
	_ someip.Endpoint = (*Replayer)(nil)
)
