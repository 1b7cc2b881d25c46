package monitor

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/trace"
)

// hotEngine builds the standard safety library engine and primes it:
// every component seen once (seq map populated), every obligation
// queue grown to its steady-state capacity.
func hotEngine() (*Engine, *logical.Time) {
	e := NewEngine(
		NoSilentCorruption(),
		RespondedWithin(logical.Duration(time10ms)),
		ReboundWithin(logical.Duration(time10ms)),
	)
	now := new(logical.Time)
	step := func(component, kind string) {
		*now++
		e.TraceEvent(*now, component, kind, hotPayload)
	}
	// Prime: one full req/call cycle plus a serve per component.
	for _, c := range hotComponents {
		step(c, trace.KindReq)
		step(c, trace.KindCall)
		step(c, trace.KindServe)
	}
	return e, now
}

const time10ms = 10 * int64(logical.Millisecond)

var (
	hotComponents = []string{"plat00.client", "plat01.client", "plat00.server"}
	hotPayload    = []byte{1, 2, 3, 4, 5, 6, 7, 8}
)

// The engine's hot path must be allocation-free once warm: it sits on
// every kernel's trace hook, and a per-event allocation would both
// slow the simulation and (worse) make monitoring observable through
// GC-driven goroutine scheduling in live runs.
func TestMonitorZeroAllocs(t *testing.T) {
	e, now := hotEngine()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c := hotComponents[i%len(hotComponents)]
		i++
		*now++
		e.TraceEvent(*now, c, trace.KindReq, hotPayload)
		*now++
		e.TraceEvent(*now, c, trace.KindCall, hotPayload)
		*now++
		e.TraceEvent(*now, c, trace.KindServe, hotPayload)
	})
	if allocs != 0 {
		t.Fatalf("monitor hot path allocates %.1f allocs per 3 events, want 0", allocs)
	}
	e.Finish()
	for _, v := range e.Verdicts() {
		if v.Violations != 0 {
			t.Fatalf("healthy hot-path stream tripped %s:\n%s", v.Monitor, Report(e.Verdicts()))
		}
	}

	// The tap hook: records a recorder sequenced, with their component
	// ids beside them, through the same library.
	e = NewEngine(
		NoSilentCorruption(),
		RespondedWithin(logical.Duration(time10ms)),
		ReboundWithin(logical.Duration(time10ms)),
	)
	var r trace.Record
	seqs := make([]uint64, len(hotComponents))
	observe := func(comp uint32, kind string) {
		seqs[comp]++
		r.Time++
		r.Seq, r.Component, r.Kind = seqs[comp], hotComponents[comp], kind
		e.Observe(comp, &r)
	}
	cycle := func(comp uint32) {
		observe(comp, trace.KindReq)
		observe(comp, trace.KindCall)
		observe(comp, trace.KindServe)
	}
	for c := range hotComponents {
		cycle(uint32(c)) // prime each component's obligation queue
	}
	i = 0
	allocs = testing.AllocsPerRun(1000, func() {
		cycle(uint32(i % len(hotComponents)))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f allocs per 3 records, want 0", allocs)
	}
	e.Finish()
	for _, v := range e.Verdicts() {
		if v.Violations != 0 {
			t.Fatalf("healthy tapped stream tripped %s:\n%s", v.Monitor, Report(e.Verdicts()))
		}
	}
}

// BenchmarkMonitor measures the per-event cost of the full standard
// library on the trace hook. Run with -benchmem: the allocs/op column
// must be 0.
func BenchmarkMonitor(b *testing.B) {
	e, now := hotEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := hotComponents[i%len(hotComponents)]
		*now++
		e.TraceEvent(*now, c, trace.KindReq, hotPayload)
		*now++
		e.TraceEvent(*now, c, trace.KindCall, hotPayload)
		*now++
		e.TraceEvent(*now, c, trace.KindServe, hotPayload)
	}
}
