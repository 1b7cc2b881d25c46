package scenario

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// traceCall is one Kernel.Trace call as the kernel hands it to its
// tracer.
type traceCall struct {
	at     logical.Time
	comp   uint32
	kind   string
	digest uint64
}

// callLog sits between a kernel and its recorder and logs every trace
// call in append order.
type callLog struct {
	next  des.Tracer
	calls []traceCall
}

func (l *callLog) Component(name string) uint32 { return l.next.Component(name) }

func (l *callLog) TraceID(at logical.Time, comp uint32, kind string, payload []byte) {
	l.calls = append(l.calls, traceCall{at, comp, kind, trace.Digest(payload)})
	l.next.TraceID(at, comp, kind, payload)
}

// tapLog sits between a recorder and its monitor engine and logs every
// record the engine observes, with the component id beside it.
type tapLog struct {
	next  trace.Tap
	comps []uint32
	recs  []trace.Record
}

func (l *tapLog) Observe(comp uint32, r *trace.Record) {
	l.comps = append(l.comps, comp)
	l.recs = append(l.recs, *r)
	l.next.Observe(comp, r)
}

// In a monitored world the engine observes exactly the recorded
// stream: on every partition, the records the engine sees are the
// kernel's trace calls in append order, each sequenced once per
// component, and their union in canonical order is the world's merged
// trace, byte for byte.
func TestTapSeesRecordedStream(t *testing.T) {
	spec := MeshPreset(6)
	spec.Rounds = 4
	spec.NoiseEvents = 20
	spec.Seed = 3
	spec.Partitions = 2
	spec.Monitors = DefaultMonitors(spec)
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	calls := make([]*callLog, w.Partitions())
	taps := make([]*tapLog, w.Partitions())
	for i, rec := range w.recorders {
		calls[i] = &callLog{next: rec}
		w.fed.Kernel(i).SetTracer(calls[i])
		taps[i] = &tapLog{next: w.engines[i]}
		rec.SetTap(taps[i])
	}
	w.Run()

	var union []trace.Record
	for i := range taps {
		got, want := taps[i].recs, calls[i].calls
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("partition %d: engine observed %d records of %d traced", i, len(got), len(want))
		}
		seqs := map[uint32]uint64{}
		names := map[uint32]string{}
		for j, r := range got {
			c := want[j]
			seqs[c.comp]++
			if names[c.comp] == "" {
				names[c.comp] = r.Component
			}
			if r.Time != c.at || taps[i].comps[j] != c.comp || r.Component != names[c.comp] ||
				r.Kind != c.kind || r.Digest != c.digest || r.Seq != seqs[c.comp] {
				t.Fatalf("partition %d record %d: engine observed %s (component %d), recorder appended t=%d component %d (%s)#%d %s digest=%016x",
					i, j, r.String(), taps[i].comps[j], int64(c.at), c.comp, names[c.comp], seqs[c.comp], c.kind, c.digest)
			}
		}
		union = append(union, got...)
	}
	slices.SortStableFunc(union, func(a, b trace.Record) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		if a.Component != b.Component {
			return cmp.Compare(a.Component, b.Component)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	merged := w.Trace()
	if merged.Len() != len(union) {
		t.Fatalf("merged trace holds %d records, the engines observed %d", merged.Len(), len(union))
	}
	for j := range union {
		if r := merged.At(j); !reflect.DeepEqual(r, union[j]) {
			t.Fatalf("observed stream differs from the merged trace at record %d: observed %s, merged %s",
				j, union[j].String(), r.String())
		}
	}
	for _, v := range w.Verdicts() {
		if v.Violations != 0 {
			t.Fatalf("healthy world tripped %s:\n%s", v.Monitor, monitor.Report(w.Verdicts()))
		}
	}
}

// TraceOverflow reads each partition's eviction count: nil on a world
// whose rings evicted nothing, and the overflowing partition named when
// one ring wraps.
func TestTraceOverflowNamesPartition(t *testing.T) {
	spec := MeshPreset(4)
	spec.Partitions = 2
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.TraceOverflow(); err != nil {
		t.Fatalf("untouched world reports an overflow: %v", err)
	}
	capacity := w.traceCapacityPartition(1, 2)
	for i := 0; i <= capacity; i++ {
		w.recorders[1].TraceEvent(logical.Time(i), "overflow", trace.KindCall, nil)
	}
	err = w.TraceOverflow()
	if err == nil || !strings.Contains(err.Error(), "partition 1 of 2 evicted 1 trace records") {
		t.Fatalf("overflowing partition 1 by one record: error %v, want it named", err)
	}
}

// TestTraceRingsExact pins traceCapacityPartition to the records a
// fault- and crash-free world makes: for each preset at 1, 2 and 4
// partitions, every partition's ring, less its 256 records of slack,
// holds exactly the records the partition recorded, so a bound that
// errs high (the rings cost memory the GC scans) fails here as surely
// as one that evicts.
func TestTraceRingsExact(t *testing.T) {
	specs := map[string]Spec{
		"mesh":     MeshPreset(8),
		"ring":     TopologyPreset(Ring, 8),
		"full":     TopologyPreset(Full, 16),
		"city-500": CityPreset(500),
	}
	for _, name := range []string{"mesh", "ring", "full", "city-500"} {
		for _, parts := range []int{1, 2, 4} {
			spec := specs[name]
			spec.Seed = 5
			spec.Partitions = parts
			w, err := Build(spec)
			if err != nil {
				t.Fatalf("%s at %d partitions: %v", name, parts, err)
			}
			w.Run()
			for p, rec := range w.recorders {
				if got, want := rec.Len(), w.traceCapacityPartition(p, parts)-256; got != want || rec.Dropped() != 0 {
					t.Errorf("%s at %d partitions, partition %d: %d records (%d evicted), ring bound %d",
						name, parts, p, got, rec.Dropped(), want)
				}
			}
		}
	}
}
