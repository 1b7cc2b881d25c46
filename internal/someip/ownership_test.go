package someip

import (
	"bytes"
	"testing"

	"repro/internal/logical"
	"repro/internal/simnet"
)

// The exported decoders copy the payload: UDPConn reads every datagram
// into one buffer, so a decoded message must not alias its input.
func TestUnmarshalCopiesPayload(t *testing.T) {
	tag := logical.Tag{Time: 5, Microstep: 1}
	for _, tc := range []struct {
		name   string
		decode func([]byte) (*Message, error)
		tag    *logical.Tag
	}{
		{"Unmarshal", Unmarshal, nil},
		{"UnmarshalTagged", UnmarshalTagged, &tag},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := (&Message{Service: 1, Method: 2, Payload: []byte("abc"), Tag: tc.tag}).Marshal()
			m, err := tc.decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wire {
				wire[i] = 0xee
			}
			if !bytes.Equal(m.Payload, []byte("abc")) {
				t.Errorf("payload %q changed with its input", m.Payload)
			}
			if tc.tag != nil && (m.Tag == nil || *m.Tag != tag) {
				t.Errorf("tag = %v, want %v", m.Tag, tag)
			}
		})
	}
}

// Conn decodes in place: the payload a handler sees is a window into the
// delivered datagram, which the network hands to the receiver for good.
func TestConnReceiveAliasesDatagram(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		_, a, b := connPair(t, tagged)
		tag := logical.Tag{Time: 9}
		wire := (&Message{Service: 1, Method: 2, Type: TypeRequest, Payload: []byte("xyz"), Tag: &tag}).Marshal()
		var aliased, sawTag bool
		b.OnMessage(func(_ Addr, m *Message) {
			aliased = &m.Payload[0] == &wire[HeaderSize]
			sawTag = m.Tag != nil && *m.Tag == tag
		})
		b.receive(simnet.Datagram{Src: a.Endpoint().Addr(), Dst: b.Endpoint().Addr(), Payload: wire})
		if !aliased {
			t.Errorf("tagged=%v: payload does not alias the datagram", tagged)
		}
		if sawTag != tagged {
			t.Errorf("tagged=%v: handler saw tag %v", tagged, sawTag)
		}
	}
}

// Topic fan-out gives every member its own datagram, so a handler that
// scribbles over its payload leaves the other receivers' bytes alone.
func TestFanoutReceiversOwnTheirPayload(t *testing.T) {
	group := simnet.Addr{Host: simnet.MulticastBase + 7, Port: 30490}
	const topic = 42
	k, a, b := connPair(t, false)
	net := b.Endpoint().Host().Net()
	c := NewConn(net.AddHost("c", nil).MustBind(3000), false)
	for _, r := range []*Conn{b, c} {
		net.JoinTopic(group, topic, r.Endpoint())
	}
	var seen [][]byte
	scribble := func(_ Addr, m *Message) {
		seen = append(seen, append([]byte(nil), m.Payload...))
		for i := range m.Payload {
			m.Payload[i] = 0
		}
	}
	b.OnMessage(scribble)
	c.OnMessage(scribble)
	m := &Message{Service: 1, Method: EventID(1), Type: TypeNotification, Payload: []byte("event")}
	k.At(0, func() { a.Endpoint().SendTopic(group, topic, m.Marshal()) })
	k.RunAll()
	if len(seen) != 2 || !bytes.Equal(seen[0], m.Payload) || !bytes.Equal(seen[1], m.Payload) {
		t.Errorf("receivers saw %q, want %q twice", seen, m.Payload)
	}
}
