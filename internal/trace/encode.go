package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/logical"
)

// Binary trace file layout (all integers big-endian):
//
//	magic "DTRC" | version u8 | truncated u64 | count u32 | records...
//
// each record:
//
//	time i64 | seq u64 | digest u64 |
//	len(component) u16 | component | len(kind) u16 | kind |
//	len(src) u16 | src | hasData u8 [| len(data) u32 | data]
//
// The encoding is a pure function of the record sequence: two traces
// encode identically iff they are identical, which is what lets the
// mode-independence property tests compare traces as byte strings.
const (
	traceMagic   = "DTRC"
	traceVersion = 1
)

// ErrBadTrace reports a malformed or truncated binary trace.
var ErrBadTrace = fmt.Errorf("trace: malformed trace encoding")

func putString(buf []byte, s string) []byte {
	if len(s) > 0xffff {
		// Silent truncation would break "identical encodings iff
		// identical traces"; no sane component/kind/src label comes
		// within orders of magnitude of the limit.
		panic(fmt.Sprintf("trace: string field of %d bytes exceeds the encoding limit (65535)", len(s)))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// Encode renders the trace in the deterministic binary format.
func (t *Trace) Encode() []byte {
	buf := make([]byte, 0, 64+t.Len()*48)
	buf = append(buf, traceMagic...)
	buf = append(buf, traceVersion)
	buf = binary.BigEndian.AppendUint64(buf, t.Truncated)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Len()))
	for i := range t.order {
		r := t.At(i)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Time))
		buf = binary.BigEndian.AppendUint64(buf, r.Seq)
		buf = binary.BigEndian.AppendUint64(buf, r.Digest)
		buf = putString(buf, r.Component)
		buf = putString(buf, r.Kind)
		buf = putString(buf, r.Src)
		if r.Data == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Data)))
			buf = append(buf, r.Data...)
		}
	}
	return buf
}

// minRecordSize is the smallest encoded record: three u64s, three
// empty strings and the stored-input flag.
const minRecordSize = 3*8 + 3*2 + 1

type decoder struct {
	buf []byte
	off int
	err error
}

// fail records a malformed encoding unless an error is already set.
func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrBadTrace
	}
}

// take returns the next n bytes. n stays unsigned until it is known to
// fit in the rest of the input, so a hostile u32 length cannot turn
// negative where int has 32 bits.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) str() []byte { return d.take(uint64(d.u16())) }

// names is a name table under construction: each distinct name is
// stored once, as one string.
type names struct {
	list []string
	ids  map[string]uint32
}

// id returns the id of name b, adding it on first sight.
func (n *names) id(b []byte) uint32 {
	if id, ok := n.ids[string(b)]; ok {
		return id
	}
	if n.ids == nil {
		n.ids = make(map[string]uint32)
	}
	s := string(b)
	n.ids[s] = uint32(len(n.list))
	n.list = append(n.list, s)
	return uint32(len(n.list) - 1)
}

// Decode parses a binary trace produced by Encode. Malformed input —
// truncated, trailing bytes, a bad magic, version or stored-input flag,
// or a record count or stored-input length the remaining bytes cannot
// hold — returns an error wrapping ErrBadTrace; an accepted input
// re-encodes to exactly its own bytes. The trace reads one ring of the
// decoded slots in identity order. Names are interned: one string per
// distinct component or kind, not per record.
func Decode(data []byte) (*Trace, error) {
	d := &decoder{buf: data}
	if string(d.take(uint64(len(traceMagic)))) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := d.u8(); v != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	t := &Trace{Truncated: d.u64()}
	// Every record takes at least minRecordSize bytes, so a count the
	// rest cannot hold is malformed before anything is sized from it.
	// The comparison is unsigned: int(0xFFFFFFFF) is -1 on 32 bits.
	n := d.u32()
	rest := len(data) - d.off
	if uint64(n) > uint64(rest/minRecordSize) {
		return nil, fmt.Errorf("%w: %d records in %d bytes", ErrBadTrace, n, rest)
	}
	count := int(n)
	src := source{ring: make([]slot, count)}
	t.order = make([]uint32, count)
	var comps, kinds names
	for i := 0; i < count && d.err == nil; i++ {
		t.order[i] = uint32(i)
		s := &src.ring[i]
		s.time = logical.Time(d.u64())
		s.seq = d.u64()
		s.digest = d.u64()
		s.comp = comps.id(d.str())
		s.kind = kinds.id(d.str())
		from := d.str()
		var stored []byte
		switch d.u8() {
		case 0:
		case 1:
			// Clone keeps an empty stored input non-nil, so it
			// re-encodes as one.
			stored = bytes.Clone(d.take(uint64(d.u32())))
		default:
			d.fail()
		}
		if len(from) > 0 || stored != nil {
			s.kind |= storedBit
			if src.inputs == nil {
				src.inputs = make(map[int]storedInput)
			}
			src.inputs[i] = storedInput{src: string(from), data: stored}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadTrace, len(data)-d.off)
	}
	src.comps, src.kinds = comps.list, kinds.list
	t.srcs = []source{src}
	return t, nil
}

// WriteFile persists the trace to path in the binary format.
func WriteFile(path string, t *Trace) error {
	if err := os.WriteFile(path, t.Encode(), 0o644); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}

// ReadFile loads a binary trace file written by WriteFile.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: reading %s: %w", path, err)
	}
	return Decode(data)
}
