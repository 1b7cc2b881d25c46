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
	b.OnMessage(func(src Addr, m *Message) { got = keep(m) })
	m := &Message{Service: 1, Method: 2, Type: TypeRequest, Payload: []byte("hi")}
	k.At(0, func() { a.Send(b.Endpoint().Addr(), m) })
	k.RunAll()
	if got == nil || !bytes.Equal(got.Payload, []byte("hi")) {
		t.Fatalf("got %v", got)
	}
	sent, _, _ := a.Stats()
	_, received, _ := b.Stats()
	if sent != 1 || received != 1 {
		t.Errorf("stats: sent=%d received=%d", sent, received)
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

func TestConnDecodeErrorSurfaces(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("a", nil)
	h2 := n.AddHost("b", nil)
	raw := h1.MustBind(1)
	conn := NewConn(h2.MustBind(2), false)
	var gotErr error
	conn.OnError(func(src Addr, err error) { gotErr = err })
	k.At(0, func() { raw.Send(conn.Endpoint().Addr(), []byte{1, 2, 3}) })
	k.RunAll()
	if gotErr == nil {
		t.Error("decode error not surfaced")
	}
	_, _, decodeErrs := conn.Stats()
	if decodeErrs != 1 {
		t.Errorf("decode errors = %d", decodeErrs)
	}
}
