package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzTraceDecode feeds arbitrary bytes to Decode, the reader of trace
// files (-replay and someip-dump load them from disk). It may not
// panic; a rejection wraps ErrBadTrace, and an accepted trace
// re-encodes to exactly the input. The seed corpus in
// testdata/fuzz/FuzzTraceDecode holds a merged two-recorder trace with
// a stored-input record, a trace with no records and a truncated trace;
// hostileCount adds a header whose record count the body cannot hold,
// and hostileStoredLength a record whose stored input claims 0xFFFFFFFF
// bytes.
func FuzzTraceDecode(f *testing.F) {
	f.Add(hostileCount())
	f.Add(hostileStoredLength())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("Decode error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		if !bytes.Equal(tr.Encode(), data) {
			t.Fatal("decoded trace re-encodes differently")
		}
	})
}

// TestDecodeIsCanonical pins the decoder's canonical form: a
// stored-input flag other than 0 or 1 is malformed, and an empty stored
// input decodes as a stored input (non-nil Data), so it re-encodes to
// the same bytes.
func TestDecodeIsCanonical(t *testing.T) {
	r := NewRecorder(16)
	r.RecordInput(1, "c", KindRecv, "", []byte{})
	empty := r.Trace().Encode()
	tr, err := Decode(empty)
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(0).Data == nil || !bytes.Equal(tr.Encode(), empty) {
		t.Fatal("an empty stored input does not round-trip")
	}
	bad := bytes.Clone(empty)
	bad[len(bad)-5] = 2 // the stored-input flag, ahead of the u32 length
	if _, err := Decode(bad); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("stored-input flag 2: Decode error %v, want ErrBadTrace", err)
	}
}

// hostileCount is a trace header claiming 0xFFFFFFFF records ahead of
// a 40-byte body.
func hostileCount() []byte {
	b := append([]byte(traceMagic), traceVersion)
	b = binary.BigEndian.AppendUint64(b, 0)
	b = binary.BigEndian.AppendUint32(b, 0xFFFFFFFF)
	return append(b, make([]byte, 40)...)
}

// hostileStoredLength is a one-record trace whose stored input, the
// last field, claims 0xFFFFFFFF bytes where none follow.
func hostileStoredLength() []byte {
	r := NewRecorder(16)
	r.RecordInput(1, "c", KindRecv, "", []byte{})
	b := r.Trace().Encode()
	binary.BigEndian.PutUint32(b[len(b)-4:], 0xFFFFFFFF)
	return b
}

// TestDecodeHostileStoredLength rejects a stored-input length the rest
// of the input cannot hold, on every word size: int(0xFFFFFFFF) is -1
// where int has 32 bits, which once sliced the input out of bounds.
func TestDecodeHostileStoredLength(t *testing.T) {
	if _, err := Decode(hostileStoredLength()); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Decode of a 0xFFFFFFFF-byte stored input: error %v, want ErrBadTrace", err)
	}
}
