// Package monitor is the online runtime-verification layer: temporal
// safety monitors evaluated against the per-kernel trace stream *as it
// is recorded*, not post-hoc. It turns the repo's determinism story
// into an observability story — the same properties the offline gates
// check after a run, a monitor Engine checks while the run happens,
// against a simulated kernel or a live physical-time run over UDP.
//
// The layer has three parts:
//
//   - An Engine (engine.go) that taps the trace recorder. It
//     satisfies trace.Tap structurally, so Recorder.SetTap attaches it
//     behind the recorder on every simulated kernel and on a live
//     RecordingEndpoint stream alike: the recorder sequences and
//     digests each event once and the engine observes exactly the
//     records it stored, each with its dense component id. The hot
//     path takes no lock and performs zero allocations after the
//     first sight of each component (TestMonitorZeroAllocs), matching
//     the recorder.
//
//   - Property combinators (combinators.go): Never and
//     MatchedWithin(open, close, d) — every open-kind event must be
//     matched by a close-kind event of the same component within a
//     deadline. RespondedWithin, ReboundWithin and NoSilentCorruption
//     instantiate the ROADMAP's three standard safety properties on
//     top of them.
//
//   - Verdicts: per-monitor violation counts, a commutative violation
//     hash, and a bounded sample of canonically-smallest violations.
//
// Verdicts are mode-independent by construction, for the same reason
// canonical traces are: every monitor factors per component. A
// component lives on exactly one kernel of a federation, its record
// stream (time, seq order) is identical in every execution mode, and
// no monitor couples state across components. Merging per-engine
// verdicts (MergeVerdicts) therefore sums counts, adds hashes
// (commutative, so partition order is irrelevant) and unions violation
// samples into exactly the verdict a single-kernel run produces —
// byte-identical across partition counts and GOMAXPROCS, which the E16
// sweep gates. End-of-stream flushing flags *all* still-pending
// obligations unconditionally: "unresolved at end of run" is a pure
// function of the per-component streams, whereas an engine-local end
// time is not.
package monitor

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logical"
	"repro/internal/trace"
)

// maxSamples bounds the violations stored per verdict. Each engine
// keeps its canonically-smallest maxSamples violations, so the union
// of per-partition samples always contains the globally smallest
// maxSamples — merged samples are mode-independent.
const maxSamples = 8

// Violation is one detected property breach, anchored at the record
// that opened (or constitutes) the breached obligation — an anchor
// every execution mode agrees on, unlike the engine-local moment of
// detection. The (Time, Component, Seq) triple identifies the
// anchoring trace record.
type Violation struct {
	// Monitor names the breached monitor.
	Monitor string `json:"monitor"`
	// Time is the logical time of the anchoring record.
	Time logical.Time `json:"atNs"`
	// Component is the anchoring record's component label.
	Component string `json:"component"`
	// Seq is the anchoring record's component-local sequence number.
	Seq uint64 `json:"seq"`
	// Kind is the anchoring record's event kind.
	Kind string `json:"kind"`
	// Detail explains the breach. It is a pure function of the record
	// stream (deadlines, kinds), never of engine-local state.
	Detail string `json:"detail"`
}

// String renders the violation canonically — also the input to the
// verdict hash, so it must stay deterministic.
func (v *Violation) String() string {
	return fmt.Sprintf("%s: t=%d %s#%d %s: %s",
		v.Monitor, int64(v.Time), v.Component, v.Seq, v.Kind, v.Detail)
}

// less orders violations canonically: (time, component, seq, monitor).
// Within one monitor each obligation anchors at most one violation, so
// the order is total over a verdict's violations.
func (v *Violation) less(o *Violation) bool {
	if v.Time != o.Time {
		return v.Time < o.Time
	}
	if v.Component != o.Component {
		return v.Component < o.Component
	}
	if v.Seq != o.Seq {
		return v.Seq < o.Seq
	}
	return v.Monitor < o.Monitor
}

// Verdict is one monitor's accumulated result: how many obligations it
// checked, how many were violated, a commutative hash over all
// violations, and the canonically-smallest sample of them. Everything
// in a Verdict is mode-independent (see the package comment).
type Verdict struct {
	// Monitor names the monitor this verdict belongs to.
	Monitor string `json:"monitor"`
	// Checked counts obligations examined (records for Never,
	// opened obligations for MatchedWithin).
	Checked uint64 `json:"checked"`
	// Violations counts breaches.
	Violations uint64 `json:"violations"`
	// Hash is the mod-2^64 sum of the FNV-1a digests of every
	// violation's canonical rendering. Addition commutes, so hashes of
	// per-partition engines merge into the single-kernel hash
	// regardless of partition order.
	Hash uint64 `json:"hash"`
	// Samples holds the canonically-smallest violations, at most
	// maxSamples, in canonical order.
	Samples []Violation `json:"samples,omitempty"`
}

// Reporter accumulates one monitor's verdict. Monitors call Check for
// every examined obligation and Violate for every breach; the engine
// owns one Reporter per monitor.
type Reporter struct {
	v Verdict
}

// Check counts one examined obligation.
func (rp *Reporter) Check() { rp.v.Checked++ }

// Violate records one breach: count, commutative hash contribution,
// and insertion into the canonically-smallest sample set. Insertion
// keeps the smallest maxSamples regardless of arrival order, so
// end-of-stream flushes may iterate Go maps freely.
func (rp *Reporter) Violate(viol Violation) {
	rp.v.Violations++
	rp.v.Hash += trace.Digest([]byte(viol.String()))
	s := rp.v.Samples
	i := sort.Search(len(s), func(i int) bool { return viol.less(&s[i]) })
	if i == len(s) {
		if len(s) < maxSamples {
			rp.v.Samples = append(s, viol)
		}
		return
	}
	if len(s) < maxSamples {
		s = append(s, Violation{})
	}
	copy(s[i+1:], s[i:])
	s[i] = viol
	rp.v.Samples = s
}

// Monitor is one temporal safety property evaluated online. A monitor
// is stateful and single-use: build fresh instances per engine (each
// partition kernel of a federation gets its own). Implementations must
// never couple state across components — per-component factoring is
// what makes verdicts mode-independent.
type Monitor interface {
	// Name identifies the monitor; verdicts merge by name.
	Name() string
	// Observe feeds one record in the component's stream order. comp
	// is the record's dense component id in the feeding engine's
	// numbering, so per-component state can live in a slice indexed
	// by it.
	Observe(comp uint32, r *trace.Record, rep *Reporter)
	// Flush flags every obligation still pending at end of stream
	// ("unresolved at end of run" — see the package comment for why
	// this is unconditional).
	Flush(rep *Reporter)
}

// MergeVerdicts combines per-engine verdict slices — typically one per
// partition kernel — into the verdicts a single engine observing the
// whole stream would produce: counts sum, hashes add, and sample sets
// union down to the canonically-smallest maxSamples. Verdicts merge by
// monitor name, in first-appearance order; every engine built from the
// same spec yields the same names in the same order.
func MergeVerdicts(groups ...[]Verdict) []Verdict {
	var out []Verdict
	index := make(map[string]int)
	for _, g := range groups {
		for i := range g {
			v := &g[i]
			j, ok := index[v.Monitor]
			if !ok {
				index[v.Monitor] = len(out)
				out = append(out, Verdict{Monitor: v.Monitor})
				j = len(out) - 1
			}
			m := &out[j]
			m.Checked += v.Checked
			m.Violations += v.Violations
			m.Hash += v.Hash
			m.Samples = append(m.Samples, v.Samples...)
		}
	}
	for i := range out {
		s := out[i].Samples
		sort.Slice(s, func(a, b int) bool { return s[a].less(&s[b]) })
		if len(s) > maxSamples {
			s = s[:maxSamples]
		}
		out[i].Samples = s
	}
	return out
}

// Report renders verdicts canonically — one line per monitor plus its
// sampled violations — for byte-equality comparison across execution
// modes and for human diagnostics.
func Report(verdicts []Verdict) string {
	var b strings.Builder
	for i := range verdicts {
		v := &verdicts[i]
		fmt.Fprintf(&b, "monitor %s checked=%d violations=%d hash=%016x\n",
			v.Monitor, v.Checked, v.Violations, v.Hash)
		for j := range v.Samples {
			fmt.Fprintf(&b, "  violation %s\n", v.Samples[j].String())
		}
	}
	return b.String()
}

// FirstViolation returns the canonically-smallest violation across all
// verdicts, or nil when every monitor is satisfied. Because each
// verdict's samples are the canonically-smallest of its violations,
// this is the globally first breach in canonical trace order — the
// record a trace-prefix dump cuts at.
func FirstViolation(verdicts []Verdict) *Violation {
	var first *Violation
	for i := range verdicts {
		for j := range verdicts[i].Samples {
			v := &verdicts[i].Samples[j]
			if first == nil || v.less(first) {
				first = v
			}
		}
	}
	if first == nil {
		return nil
	}
	out := *first
	return &out
}

// ViolationPrefix cuts a canonical trace at a violation's anchoring
// record (inclusive): every record canonically at or before (Time,
// Component, Seq) survives. The prefix shares t's records and tables
// (trace.Trace.Prefix), so it copies nothing. It is the replayable
// artifact a violated recording run dumps — Evaluate over it reproduces the
// violation (see the containment contract in DESIGN.md: truncation may
// additionally flush other components' in-flight obligations, so
// replay asserts the dumped violation is *contained* in the replayed
// verdicts, not that it is the unique first).
func ViolationPrefix(t *trace.Trace, v *Violation) *trace.Trace {
	n := 0
	for ; n < t.Len(); n++ {
		r := t.At(n)
		if r.Time > v.Time {
			break
		}
		if r.Time == v.Time {
			if r.Component > v.Component {
				break
			}
			if r.Component == v.Component && r.Seq > v.Seq {
				break
			}
		}
	}
	return t.Prefix(n)
}

// Evaluate runs fresh monitors over a canonical trace post-hoc and
// returns their verdicts — the offline twin of the online Engine, used
// to replay dumped violation prefixes. Within each component the
// canonical order equals the stream order the online engine saw, and
// monitors factor per component, so Evaluate over a complete trace
// produces exactly the online verdicts.
func Evaluate(t *trace.Trace, monitors ...Monitor) []Verdict {
	e := NewEngine(monitors...)
	var r trace.Record
	for i := 0; i < t.Len(); i++ {
		r = t.At(i)
		e.Observe(e.intern(r.Component), &r)
	}
	e.Finish()
	return e.Verdicts()
}
