package monitor

import (
	"fmt"

	"repro/internal/logical"
	"repro/internal/trace"
)

// Pred is a record predicate — the building block of Never.
// Predicates must be pure functions of the record (never of shared
// state), or verdicts lose their mode-independence.
type Pred func(r *trace.Record) bool

// KindIs returns a predicate matching records of the given kind.
func KindIs(kind string) Pred {
	return func(r *trace.Record) bool { return r.Kind == kind }
}

// neverMon implements Never: it violates whenever the predicate holds
// for an observed record.
type neverMon struct {
	name string
	p    Pred
}

// Name identifies the monitor.
func (m *neverMon) Name() string { return m.name }

// Observe checks the predicate against one record.
func (m *neverMon) Observe(_ uint32, r *trace.Record, rep *Reporter) {
	rep.Check()
	if m.p(r) {
		rep.Violate(Violation{
			Monitor: m.name, Time: r.Time, Component: r.Component,
			Seq: r.Seq, Kind: r.Kind, Detail: "forbidden event observed",
		})
	}
}

// Flush is a no-op: predicate monitors carry no pending obligations.
func (m *neverMon) Flush(rep *Reporter) {}

// Never returns a monitor demanding that no record satisfies p.
func Never(name string, p Pred) Monitor { return &neverMon{name: name, p: p} }

// obQueue is a per-component FIFO of open obligations awaiting their
// close. It mirrors the kernel free-list discipline: the backing slice
// is reused (head index instead of re-slicing, full reset when
// drained), so steady-state observation allocates nothing.
type obQueue struct {
	opens []trace.Record
	head  int
}

// matchedWithin demands that every openKind record of a component is
// followed by one of closeKinds on the same component within deadline
// d. Expiry is detected through the component's own stream: any record
// past an open's deadline flags it — a pure function of the
// per-component stream, so detection is mode-independent even though
// the engine-local detection *moment* is not. Obligations still open
// at end of stream are flushed unconditionally.
type matchedWithin struct {
	name       string
	openKind   string
	closeKinds []string
	d          logical.Duration
	pend       []obQueue // by component id
	lateDetail string
	openDetail string
}

// MatchedWithin returns a monitor demanding every openKind event be
// matched, on the same component, by one of the closeKinds within
// deadline d (close at exactly open+d is in time). RespondedWithin and
// ReboundWithin instantiate it; live endpoint streams can instantiate
// it over KindRecv/KindSend to monitor service turnaround — the same
// engine, unchanged, against a physical run.
func MatchedWithin(name, openKind string, closeKinds []string, d logical.Duration) Monitor {
	closes := ""
	for i, k := range closeKinds {
		if i > 0 {
			closes += "/"
		}
		closes += k
	}
	return &matchedWithin{
		name:       name,
		openKind:   openKind,
		closeKinds: append([]string(nil), closeKinds...),
		d:          d,
		lateDetail: fmt.Sprintf("no %s within %dns of %s", closes, int64(d), openKind),
		openDetail: fmt.Sprintf("%s unresolved at end of run", openKind),
	}
}

// Name identifies the monitor.
func (m *matchedWithin) Name() string { return m.name }

// isClose reports whether kind discharges an obligation. The close set
// is tiny (one or two kinds), so a linear scan beats any map.
func (m *matchedWithin) isClose(kind string) bool {
	for _, k := range m.closeKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// violateAt flags the obligation anchored at open with the given
// detail.
func (m *matchedWithin) violateAt(open *trace.Record, detail string, rep *Reporter) {
	rep.Violate(Violation{
		Monitor: m.name, Time: open.Time, Component: open.Component,
		Seq: open.Seq, Kind: open.Kind, Detail: detail,
	})
}

// Observe advances the component's obligation queue: expired heads are
// flagged, an open record enqueues, a close record discharges the
// (unexpired) head.
func (m *matchedWithin) Observe(comp uint32, r *trace.Record, rep *Reporter) {
	var q *obQueue
	if int(comp) < len(m.pend) {
		q = &m.pend[comp]
		for q.head < len(q.opens) {
			o := &q.opens[q.head]
			if r.Time <= o.Time.Add(m.d) {
				break
			}
			m.violateAt(o, m.lateDetail, rep)
			q.head++
		}
		if q.head == len(q.opens) {
			q.opens = q.opens[:0]
			q.head = 0
		}
	}
	switch {
	case r.Kind == m.openKind:
		rep.Check()
		if q == nil {
			m.pend = append(m.pend, make([]obQueue, int(comp)+1-len(m.pend))...)
			q = &m.pend[comp]
		}
		q.opens = append(q.opens, *r)
	case m.isClose(r.Kind):
		if q != nil && q.head < len(q.opens) {
			q.head++
			if q.head == len(q.opens) {
				q.opens = q.opens[:0]
				q.head = 0
			}
		}
	}
}

// Flush flags every obligation still open, component by component in
// id order — Reporter accumulation is insertion-order-independent.
func (m *matchedWithin) Flush(rep *Reporter) {
	for c := range m.pend {
		q := &m.pend[c]
		for i := q.head; i < len(q.opens); i++ {
			m.violateAt(&q.opens[i], m.openDetail, rep)
		}
		q.opens = q.opens[:0]
		q.head = 0
	}
}

// RespondedWithin returns the standard "answered-or-observably-timed-
// out within D" safety monitor: every issued request (KindReq) must be
// matched by a completed call (KindCall) or an observable failure
// (KindCallErr) of the same component within d. The deadline is
// embedded in the name so differently-parameterized instances merge
// separately.
func RespondedWithin(d logical.Duration) Monitor {
	return MatchedWithin(
		fmt.Sprintf("responded-within(%dns)", int64(d)),
		trace.KindReq, []string{trace.KindCall, trace.KindCallErr}, d)
}

// ReboundWithin returns the standard "re-bind within T of restart"
// safety monitor: every platform restart (KindRestart) must be
// followed by a service re-offer (KindBind) of the same lifecycle
// component within d.
func ReboundWithin(d logical.Duration) Monitor {
	return MatchedWithin(
		fmt.Sprintf("rebound-within(%dns)", int64(d)),
		trace.KindRestart, []string{trace.KindBind}, d)
}

// NoSilentCorruption returns the standard "no silent corruption ever"
// safety monitor: the KindCorrupt sentinel — an input that failed an
// integrity check without being structurally refused — must never
// appear in the stream.
func NoSilentCorruption() Monitor {
	return Never("no-silent-corruption", KindIs(trace.KindCorrupt))
}
