package someip

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

func connPair(t *testing.T, tagged bool) (*des.Kernel, *Conn, *Conn) {
	t.Helper()
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("a", nil)
	h2 := n.AddHost("b", nil)
	a := NewConn(h1.MustBind(1000), tagged)
	b := NewConn(h2.MustBind(2000), tagged)
	return k, a, b
}

// keep copies a received message out of the handler, as the OnMessage
// contract requires of anything that outlives the callback: the header
// and the tag are copied; the payload already belongs to the receiver.
func keep(m *Message) *Message {
	c := *m
	if m.Tag != nil {
		tag := *m.Tag
		c.Tag = &tag
	}
	return &c
}

func TestConnRoundTrip(t *testing.T) {
	k, a, b := connPair(t, false)
	var got *Message
	received := 0
	b.OnMessage(func(src Addr, m *Message) { got = keep(m); received++ })
	m := &Message{Service: 1, Method: 2, Type: TypeRequest, Payload: []byte("hi")}
	k.At(0, func() { a.Send(b.Endpoint().Addr(), m) })
	k.RunAll()
	if got == nil || !bytes.Equal(got.Payload, []byte("hi")) {
		t.Fatalf("got %v", got)
	}
	if received != 1 {
		t.Errorf("received %d messages, want 1", received)
	}
}

func TestConnTaggedCarriesTag(t *testing.T) {
	k, a, b := connPair(t, true)
	var got *Message
	b.OnMessage(func(src Addr, m *Message) { got = keep(m) })
	tag := logical.Tag{Time: 7, Microstep: 1}
	k.At(0, func() {
		a.Send(b.Endpoint().Addr(), &Message{Service: 1, Method: 2, Type: TypeNotification, Tag: &tag})
	})
	k.RunAll()
	if got == nil || got.Tag == nil || *got.Tag != tag {
		t.Fatalf("tag = %v", got)
	}
}

func TestConnUntaggedStripsTag(t *testing.T) {
	k, a, b := connPair(t, false)
	var got *Message
	b.OnMessage(func(src Addr, m *Message) { got = keep(m) })
	tag := logical.Tag{Time: 7}
	k.At(0, func() {
		a.Send(b.Endpoint().Addr(), &Message{Service: 1, Method: 2, Type: TypeNotification, Payload: []byte("z"), Tag: &tag})
	})
	k.RunAll()
	if got == nil {
		t.Fatal("nothing received")
	}
	if got.Tag != nil {
		t.Error("untagged binding leaked a tag")
	}
	if !bytes.Equal(got.Payload, []byte("z")) {
		t.Errorf("payload = %q", got.Payload)
	}
}

// A datagram that does not decode is dropped; the next good message
// still arrives.
func TestConnDropsMalformedDatagram(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("a", nil)
	h2 := n.AddHost("b", nil)
	raw := h1.MustBind(1)
	conn := NewConn(h2.MustBind(2), false)
	var got []string
	conn.OnMessage(func(src Addr, m *Message) { got = append(got, string(m.Payload)) })
	good := &Message{Service: 1, Method: 2, Type: TypeRequest, Payload: []byte("good")}
	k.At(0, func() { raw.Send(conn.Endpoint().Addr(), []byte{1, 2, 3}) })
	k.At(1, func() { raw.Send(conn.Endpoint().Addr(), good.Marshal()) })
	k.RunAll()
	if len(got) != 1 || got[0] != "good" {
		t.Errorf("delivered %q, want only the good message", got)
	}
}
