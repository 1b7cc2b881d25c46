package someip

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/logical"
)

// FuzzDecode feeds arbitrary datagrams to every decoder that takes
// bytes from outside the program: Conn's in-place decode and UDPConn's
// copying decode, each followed by the shared incoming step, the
// exported UnmarshalTagged, and the SD payload decoder. None may panic.
// An accepted datagram re-marshals to its own bytes, and incoming
// rejects exactly the TP-flagged messages. The seed corpus in
// testdata/fuzz/FuzzDecode holds a request, a tagged notification, an
// SD offer with an IPv4 endpoint option and a TP segment.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		var tag logical.Tag
		if decodeInto(&m, data) == nil {
			if !bytes.Equal(m.Marshal(), data) {
				t.Fatalf("re-marshal differs from the datagram")
			}
			err := incoming(&m, true, &tag)
			if segmented := m.Type&TPFlag != 0; errors.Is(err, ErrSegmented) != segmented {
				t.Fatalf("incoming on type %v: %v", m.Type, err)
			}
		}
		if m, err := Unmarshal(data); err == nil {
			incoming(m, true, nil)
			UnmarshalSD(m.Payload)
		}
		if m, err := UnmarshalTagged(data); err == nil {
			incoming(m, false, nil)
		}
		UnmarshalSD(data)
	})
}
