package someip

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SOME/IP payload serialization per the AUTOSAR basic datatype rules:
// big-endian ("network byte order") encoding of fixed-width integers and
// IEEE-754 floats, booleans as one byte, strings and dynamic arrays with
// a leading 32-bit length field. Writer and Reader implement streaming
// encode/decode with explicit error tracking, the building blocks that
// generated proxies/skeletons use for method arguments and event data.

// Writer serializes values into a growing payload buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterBuffer returns a writer that serializes into buf's storage
// (truncated to length zero, capacity kept). Hot paths hand the writer
// a pooled or stack buffer and serialize without per-message
// allocations as long as the payload fits the capacity.
func NewWriterBuffer(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Reset truncates the writer for reuse, keeping the accumulated
// capacity — the pooling companion to NewWriterBuffer. Bytes returned
// by earlier Bytes calls alias the storage and are invalidated.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current payload length.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends an unsigned 8-bit value.
func (w *Writer) U8(v uint8) *Writer {
	w.buf = append(w.buf, v)
	return w
}

// U16 appends an unsigned 16-bit value.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends an unsigned 32-bit value.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends an unsigned 64-bit value.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// Bool appends a boolean (one byte, 0 or 1).
func (w *Writer) Bool(v bool) *Writer {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// String appends a UTF-8 string with a 32-bit length field.
func (w *Writer) String(s string) *Writer {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Blob appends a dynamic byte array with a 32-bit length field.
func (w *Writer) Blob(b []byte) *Writer {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// Raw appends bytes without a length field (fixed-size arrays/structs).
func (w *Writer) Raw(b []byte) *Writer {
	w.buf = append(w.buf, b...)
	return w
}

// ErrPayloadTruncated reports reads past the end of a payload.
var ErrPayloadTruncated = errors.New("someip: payload truncated")

// Reader deserializes values from a payload. The first error sticks: all
// subsequent reads return zero values, and Err reports the failure, so
// call sites can decode a full struct and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for reading.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset re-aims the reader at a new payload, clearing any sticky
// error — the pooling companion to NewReader.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish verifies the payload was consumed exactly and returns any error.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("someip: %d trailing payload bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrPayloadTruncated, n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads an unsigned 8-bit value.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads an unsigned 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads an unsigned 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bool reads a boolean; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed UTF-8 string.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	if n < 0 || n > r.Remaining() {
		r.err = fmt.Errorf("%w: string length %d exceeds remaining %d", ErrPayloadTruncated, n, r.Remaining())
		return ""
	}
	b := r.take(n)
	return string(b)
}

// Blob reads a length-prefixed byte array. The returned slice aliases
// the payload buffer — no defensive copy, no allocation. Callers that
// outlive the payload (or mutate the result) serialize into their own
// storage with BlobAppend instead.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.err = fmt.Errorf("%w: blob length %d exceeds remaining %d", ErrPayloadTruncated, n, r.Remaining())
		return nil
	}
	return r.take(n)
}

// BlobAppend reads a length-prefixed byte array and appends it to dst,
// returning the extended slice: ownership without a fresh allocation
// when dst comes from a pool (or has capacity left). On a decoding
// error dst is returned unchanged.
func (r *Reader) BlobAppend(dst []byte) []byte {
	b := r.Blob()
	if b == nil {
		return dst
	}
	return append(dst, b...)
}

// Raw reads n bytes without a length field. Like Blob, the returned
// slice aliases the payload buffer; use RawAppend for an owned copy.
func (r *Reader) Raw(n int) []byte {
	return r.take(n)
}

// RawAppend reads n bytes without a length field and appends them to
// dst, returning the extended slice. On a decoding error dst is
// returned unchanged.
func (r *Reader) RawAppend(dst []byte, n int) []byte {
	b := r.take(n)
	if b == nil {
		return dst
	}
	return append(dst, b...)
}
