package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/logical"
)

// checkPointerFree fails t for every pointer-bearing field of typ, found
// by a reflect walk.
func checkPointerFree(t *testing.T, path string, typ reflect.Type) {
	t.Helper()
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("field %s has pointer-bearing kind %s", path, typ.Kind())
		}
	}
	walk(path, typ)
}

// The ring is the recorder's whole footprint: a slot that held a
// pointer would make the collector scan every record of every ring. A
// reflect walk over the slot type must find no pointer-bearing field,
// and a slot must fit in 32 bytes.
func TestRingSlotIsPointerFree(t *testing.T) {
	checkPointerFree(t, "slot", reflect.TypeOf(slot{}))
	if size := unsafe.Sizeof(slot{}); size > 32 {
		t.Errorf("ring slot is %d bytes, want at most 32", size)
	}
}

type nopTap struct{}

func (nopTap) Observe(uint32, *Record) {}

// Tap sinks installed one after another, as a monitored federated
// world's partitions install theirs, must each fill whole cache lines
// on a line boundary, or two kernels' goroutines write the same line on
// every event.
func TestTapSinkFillsCacheLines(t *testing.T) {
	const line = 64
	for i := 0; i < 2; i++ {
		r := NewRecorder(16)
		r.SetTap(nopTap{})
		size, addr := unsafe.Sizeof(*r.tap), uintptr(unsafe.Pointer(r.tap))
		if size%line != 0 || addr%line != 0 {
			t.Errorf("tap sink %d: %d bytes at %#x, want a multiple of %d bytes on a line boundary", i, size, addr, line)
		}
	}
}

// ringWrapCalls drives a 16-slot recorder through a wrap with stored
// inputs among the digest-only records: 41 records over three
// components, every fourth a captured input, the last an empty one.
func ringWrapCalls(r *Recorder) {
	for i := 0; i < 40; i++ {
		at := logical.Time(i / 2)
		comp := fmt.Sprintf("c%d", i%3)
		if i%4 == 0 {
			r.RecordInput(at, comp, KindRecv, fmt.Sprintf("peer%d", i), []byte{byte(i), 1})
		} else {
			r.TraceEvent(at, comp, KindSend, []byte{byte(i)})
		}
	}
	r.RecordInput(20, "c0", KindRecv, "peer40", nil)
}

// ringWrapEncoding is the SHA-256 of the encoded trace ringWrapCalls
// leaves in a 16-slot recorder, taken from the recorder that stored
// whole records in its ring: the pointer-free ring must encode the same
// bytes.
const ringWrapEncoding = "61d1e09dd750a3b808b55cf58996fa0117102ae1a8ec6e6c2612549aac9c2424"

// A wrapping ring releases the stored inputs of the records it evicts,
// keeps the source and bytes of the inputs that survive, and encodes
// exactly the bytes the whole-record ring did for the same calls.
func TestRingWrapReleasesEvictedInputs(t *testing.T) {
	r := NewRecorder(16)
	ringWrapCalls(r)
	// Of the 11 inputs, those at calls 28, 32, 36 and 40 survive.
	if len(r.inputs) != 4 {
		t.Fatalf("side table holds %d inputs after the wrap, want the 4 surviving ones", len(r.inputs))
	}
	tr := r.Trace()
	if tr.Len() != 16 || tr.Truncated != 25 {
		t.Fatalf("trace holds %d records, %d truncated; want 16 and 25", tr.Len(), tr.Truncated)
	}
	var inputs int
	for i := 0; i < tr.Len(); i++ {
		rec := tr.record(i)
		if rec.Kind != KindRecv {
			if rec.Src != "" || rec.Data != nil {
				t.Fatalf("digest-only record carries an input: %s", rec)
			}
			continue
		}
		inputs++
		var call int
		if _, err := fmt.Sscanf(rec.Src, "peer%d", &call); err != nil {
			t.Fatalf("input record lost its source: %s", rec)
		}
		var want []byte
		if call < 40 {
			want = []byte{byte(call), 1}
		}
		if !bytes.Equal(rec.Data, want) || (want == nil) != (rec.Data == nil) {
			t.Fatalf("input record %s holds %v, want %v", rec, rec.Data, want)
		}
	}
	if inputs != 4 {
		t.Fatalf("trace holds %d input records, want 4", inputs)
	}
	sum := sha256.Sum256(tr.Encode())
	if got := hex.EncodeToString(sum[:]); got != ringWrapEncoding {
		t.Fatalf("encoding changed: sha256 %s, want %s", got, ringWrapEncoding)
	}
}

// A merged trace reads its records in place from the rings it shares
// and adds one order index, the only per-record allocation of a merge:
// the element types of both the order index and a source ring must
// hold no pointer either.
func TestTraceRecordsArePointerFree(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		field string
	}{
		{reflect.TypeOf(Trace{}), "order"},
		{reflect.TypeOf(source{}), "ring"},
	} {
		f, ok := c.typ.FieldByName(c.field)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("%s has no %s slice", c.typ.Name(), c.field)
		}
		checkPointerFree(t, c.typ.Name()+"."+c.field+"[]", f.Type.Elem())
	}
}
