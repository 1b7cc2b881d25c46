package trace

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/logical"
)

// The recorder rides the hot path of every traced kernel, so the
// digest-only record path must not allocate: ring slots are
// preallocated and recycled (the kernel's Post free-list discipline),
// the digest is computed in place, and the per-component sequence map
// only allocates on first sight of a component.
func TestTraceRecordZeroAllocs(t *testing.T) {
	r := NewRecorder(1 << 12)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	// Prime the per-component sequence entry.
	r.TraceEvent(0, "plat00.client", KindCall, payload)
	allocs := testing.AllocsPerRun(1000, func() {
		r.TraceEvent(1, "plat00.client", KindCall, payload)
	})
	if allocs != 0 {
		t.Fatalf("TraceEvent allocates %.1f objects/op, want 0", allocs)
	}
	// Wrap-around (slot recycling) must stay alloc-free too.
	allocs = testing.AllocsPerRun(1<<13, func() {
		r.TraceEvent(2, "plat00.client", KindServe, payload)
	})
	if allocs != 0 {
		t.Fatalf("TraceEvent allocates %.1f objects/op after wrap, want 0", allocs)
	}
	// The kernel's path, by registered id, allocates nothing from its
	// first record on.
	c := r.Component("plat01.server")
	allocs = testing.AllocsPerRun(1000, func() {
		r.TraceID(3, c, KindServe, payload)
	})
	if allocs != 0 {
		t.Fatalf("TraceID allocates %.1f objects/op, want 0", allocs)
	}
	// Reading a merged record back, stored input included, shares the
	// trace's strings and bytes.
	r.RecordInput(4, "plat00.client", KindRecv, "peer", payload)
	tr := r.Trace()
	var rec Record
	allocs = testing.AllocsPerRun(1000, func() {
		rec = tr.At(tr.Len() - 1)
	})
	if allocs != 0 || rec.Src != "peer" {
		t.Fatalf("Trace.At allocates %.1f objects/op (record %s), want 0", allocs, &rec)
	}
}

// mergeFixture builds k time-ordered recorders sharing n records
// between them, with same-time runs inside each stream.
func mergeFixture(k, n int) []*Recorder {
	recs := make([]*Recorder, k)
	for i := range recs {
		recs[i] = NewRecorder(n/k + 1)
	}
	for j := 0; j < n; j++ {
		comp := fmt.Sprintf("plat%02d.client", j%7)
		recs[j%k].TraceEvent(logical.Time(j/3), comp, KindCall, []byte{byte(j)})
	}
	return recs
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes allocated by one call of f.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// Merge's allocation budget: a constant number of allocations however
// many records it merges — the 4-byte order index, in which the largest
// stream sorts in place, one 4-byte scratch index list for the other
// streams, no slot copied, no growth and no per-record work on the heap
// — and at most n·8 bytes plus page rounding of those two large slices
// and a small constant. The collector is off while it
// measures: a GC cycle makes runtime allocations of its own, and a
// larger merge triggers more cycles.
func TestMergeAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k = 3
	var counts []float64
	for _, n := range []int{2000, 20000} {
		recs := mergeFixture(k, n)
		merge := func() { Merge(recs...) }
		counts = append(counts, testing.AllocsPerRun(10, merge))
		budget := uint64(n)*8 + (k+1)*8192 + 1024
		got := bytesPerRun(10, merge)
		t.Logf("n=%d: %.0f allocs/op, %d B/op (budget %d)", n, counts[len(counts)-1], got, budget)
		if got > budget {
			t.Errorf("Merge of %d records allocates %d B/op, budget %d", n, got, budget)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("Merge allocations grow with the record count: %v objects/op for 2000 vs 20000 records", counts)
	}
	if counts[1] > k+6 {
		t.Errorf("Merge of %d recorders makes %.0f allocations, budget %d", k, counts[1], k+6)
	}
}

// A Trace shares its recorders' rings, so recording after a merge must
// leave the merged trace as it was: each recorder copies its ring and
// input table once, on its first record after the merge, and appends
// allocate nothing again after that copy.
func TestTraceSurvivesLaterRecording(t *testing.T) {
	a, b := NewRecorder(16), NewRecorder(16)
	for i := 0; i < 6; i++ {
		a.TraceEvent(logical.Time(i), "a", KindCall, []byte{byte(i)})
		b.TraceEvent(logical.Time(i), "b", KindServe, []byte{byte(i)})
	}
	b.RecordInput(6, "b", KindRecv, "peer", []byte{1, 2, 3})
	first := Merge(a, b)
	kept := first.Encode()
	if first.Len() != 13 || first.At(12).Data == nil {
		t.Fatalf("first merge holds %d records, last %s; want 13 ending in the input", first.Len(), first.record(12))
	}

	// Wrap both rings: every record of the first merge, the stored input
	// included, is evicted.
	for i := 0; i < 20; i++ {
		a.TraceEvent(logical.Time(100+i), "a", KindCall, []byte{byte(i), 1})
		b.TraceEvent(logical.Time(100+i), "b", KindSend, []byte{byte(i), 2})
	}
	if len(b.inputs) != 0 {
		t.Fatalf("b's input table holds %d inputs after the wrap, want 0", len(b.inputs))
	}
	second := Merge(a, b)
	if !bytes.Equal(first.Encode(), kept) {
		t.Fatal("recording after a merge changed the merged trace's encoding")
	}
	if r := first.At(12); !bytes.Equal(r.Data, []byte{1, 2, 3}) || r.Src != "peer" {
		t.Fatalf("the first trace lost its stored input: %s", &r)
	}
	if second.Len() != 32 || second.Truncated != 10+11 {
		t.Fatalf("second merge holds %d records, %d truncated; want 32 and 21", second.Len(), second.Truncated)
	}
	for i := 0; i < second.Len(); i++ {
		if r := second.At(i); r.Time < 104 || r.Data != nil {
			t.Fatalf("second merge record %d is not a new digest-only record: %s", i, &r)
		}
	}

	// One copy per recorder on its first record after the merge, then
	// none.
	for _, r := range []*Recorder{a, b} {
		r.TraceEvent(200, "x", KindCall, nil)
		if allocs := testing.AllocsPerRun(100, func() {
			r.TraceEvent(201, "x", KindCall, nil)
		}); allocs != 0 {
			t.Fatalf("TraceEvent allocates %.1f objects/op after the post-merge copy, want 0", allocs)
		}
	}
}

// Decode sizes its slot slice from the header's record count, so a
// count the body cannot hold must be rejected before anything is
// allocated from it: 0xFFFFFFFF records ahead of 40 bytes fail with
// ErrBadTrace in a few KiB.
func TestDecodeHostileCountBounded(t *testing.T) {
	data := hostileCount()
	if _, err := Decode(data); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Decode of a 0xFFFFFFFF-record header: error %v, want ErrBadTrace", err)
	}
	if got := bytesPerRun(10, func() { Decode(data) }); got > 4096 {
		t.Fatalf("rejecting a 0xFFFFFFFF-record header allocates %d B, budget 4096", got)
	}
}
