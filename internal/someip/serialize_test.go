package someip

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriterReaderAllTypes(t *testing.T) {
	w := NewWriter()
	w.U8(0xAB).U16(0xCDEF).U32(0x01020304).U64(0x1122334455667788)
	w.Bool(true).Bool(false)
	w.String("hello, wörld").Blob([]byte{1, 2, 3}).Raw([]byte{9, 9})

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xCDEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0x01020304 {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x1122334455667788 {
		t.Errorf("U64 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := r.String(); v != "hello, wörld" {
		t.Errorf("String = %q", v)
	}
	if v := r.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", v)
	}
	if v := r.Raw(2); !bytes.Equal(v, []byte{9, 9}) {
		t.Errorf("Raw = %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestReaderBigEndianLayout(t *testing.T) {
	w := NewWriter().U16(0x0102)
	if !bytes.Equal(w.Bytes(), []byte{0x01, 0x02}) {
		t.Errorf("not big endian: % x", w.Bytes())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32() // truncated
	if r.Err() == nil {
		t.Fatal("want truncation error")
	}
	// Subsequent reads return zero values without panicking.
	if v := r.U64(); v != 0 {
		t.Errorf("post-error read = %d", v)
	}
	if s := r.String(); s != "" {
		t.Errorf("post-error string = %q", s)
	}
	if err := r.Finish(); err == nil {
		t.Error("Finish should report the sticky error")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Finish(); err == nil {
		t.Error("Finish should report trailing bytes")
	}
}

func TestStringLengthOverrun(t *testing.T) {
	w := NewWriter().U32(100) // claims 100 bytes
	r := NewReader(append(w.Bytes(), 'x'))
	if s := r.String(); s != "" || r.Err() == nil {
		t.Errorf("overrun string accepted: %q, err=%v", s, r.Err())
	}
}

func TestBlobLengthOverrun(t *testing.T) {
	w := NewWriter().U32(7)
	r := NewReader(w.Bytes())
	if b := r.Blob(); b != nil || r.Err() == nil {
		t.Errorf("overrun blob accepted: %v", b)
	}
}

// Blob and Raw are zero-copy: the returned slices alias the payload.
// Callers needing ownership use BlobAppend/RawAppend into their own
// (pooled) storage.
func TestBlobAliasesAndAppendCopies(t *testing.T) {
	payload := NewWriter().Blob([]byte{5, 6, 7}).Raw([]byte{8}).Bytes()
	r := NewReader(payload)
	b := r.Blob()
	b[0] = 99
	if payload[4] != 99 {
		t.Error("Blob should alias the payload buffer (zero copy)")
	}
	if raw := r.Raw(1); &raw[0] != &payload[len(payload)-1] {
		t.Error("Raw should alias the payload buffer (zero copy)")
	}

	r.Reset(payload)
	dst := make([]byte, 0, 8)
	out := r.BlobAppend(dst)
	if !bytes.Equal(out, []byte{99, 6, 7}) {
		t.Fatalf("BlobAppend = %v", out)
	}
	out[0] = 5
	if payload[4] != 99 {
		t.Error("BlobAppend must copy into dst, not alias the payload")
	}
	out = r.RawAppend(out[:0], 1)
	if !bytes.Equal(out, []byte{8}) {
		t.Fatalf("RawAppend = %v", out)
	}
}

// The decode path must be allocation-free: reading blobs and raw spans
// out of a payload — with ownership taken via Append into a
// caller-supplied buffer — performs zero allocations per message, and
// a capacity-reusing writer serializes without allocating.
func TestSerializeZeroAllocs(t *testing.T) {
	payload := NewWriter().U32(7).Blob(make([]byte, 256)).Raw(make([]byte, 32)).Bytes()
	r := NewReader(nil)
	dst := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(200, func() {
		r.Reset(payload)
		_ = r.U32()
		dst = r.BlobAppend(dst[:0])
		dst = r.RawAppend(dst, 32)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}); allocs != 0 {
		t.Errorf("decode path allocates %v times per message, want 0", allocs)
	}

	w := NewWriterBuffer(make([]byte, 0, 512))
	blob := make([]byte, 200)
	if allocs := testing.AllocsPerRun(200, func() {
		w.Reset()
		w.U32(7).Blob(blob).Bool(true)
	}); allocs != 0 {
		t.Errorf("pooled-buffer encode path allocates %v times per message, want 0", allocs)
	}
}

// BenchmarkSerializeBlob pins the satellite win: zero-copy Blob/Raw
// reads and pooled-buffer writes at 0 allocs/op (run with -benchmem).
func BenchmarkSerializeBlob(b *testing.B) {
	payload := NewWriter().Blob(make([]byte, 1024)).Bytes()
	b.Run("decode-zero-copy", func(b *testing.B) {
		r := NewReader(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(payload)
			if len(r.Blob()) != 1024 {
				b.Fatal("short blob")
			}
		}
	})
	b.Run("decode-append-owned", func(b *testing.B) {
		r := NewReader(nil)
		dst := make([]byte, 0, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(payload)
			dst = r.BlobAppend(dst[:0])
			if len(dst) != 1024 {
				b.Fatal("short blob")
			}
		}
	})
	b.Run("encode-pooled", func(b *testing.B) {
		w := NewWriterBuffer(make([]byte, 0, 2048))
		blob := make([]byte, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			w.Blob(blob)
			if w.Len() != 1028 {
				b.Fatal("short payload")
			}
		}
	})
}

func TestEmptyStringAndBlob(t *testing.T) {
	w := NewWriter().String("").Blob(nil)
	r := NewReader(w.Bytes())
	if s := r.String(); s != "" {
		t.Errorf("empty string = %q", s)
	}
	if b := r.Blob(); len(b) != 0 {
		t.Errorf("empty blob = %v", b)
	}
	if err := r.Finish(); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary sequences of (u32, string, u64, bool) round-trip.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(u uint32, s string, v uint64, b bool, raw []byte) bool {
		if len(raw) > 1000 {
			raw = raw[:1000]
		}
		w := NewWriter().U32(u).String(s).U64(v).Bool(b).Blob(raw)
		r := NewReader(w.Bytes())
		if r.U32() != u || r.String() != s || r.U64() != v || r.Bool() != b {
			return false
		}
		if !bytes.Equal(r.Blob(), raw) && len(raw) > 0 {
			return false
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Writer length always equals sum of written sizes.
func TestWriterLenProperty(t *testing.T) {
	f := func(ss []string) bool {
		w := NewWriter()
		want := 0
		for _, s := range ss {
			if len(s) > 200 {
				s = s[:200]
			}
			w.String(s)
			want += 4 + len(s)
		}
		return w.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
