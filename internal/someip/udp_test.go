package someip

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/logical"
)

// newUDPPair creates two connected loopback endpoints.
func newUDPPair(t *testing.T, tagged bool) (*UDPConn, *UDPConn) {
	t.Helper()
	a, err := ListenUDP("127.0.0.1:0", tagged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenUDP("127.0.0.1:0", tagged)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
		panic("unreachable")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	a, b := newUDPPair(t, false)
	got := make(chan *Message, 1)
	b.OnMessage(func(src Addr, m *Message) { got <- m })

	m := &Message{Service: 0x1234, Method: 1, Client: 2, Session: 3,
		InterfaceVersion: 1, Type: TypeRequest, Payload: []byte("hello")}
	if err := a.Send(b.Addr(), m); err != nil {
		t.Fatal(err)
	}
	rx := waitFor(t, got, "message")
	if rx.Service != m.Service || !bytes.Equal(rx.Payload, m.Payload) {
		t.Errorf("received %+v", rx)
	}
}

func TestUDPTaggedRoundTrip(t *testing.T) {
	a, b := newUDPPair(t, true)
	got := make(chan *Message, 1)
	b.OnMessage(func(src Addr, m *Message) { got <- m })

	tag := logical.Tag{Time: 777, Microstep: 2}
	m := &Message{Service: 1, Method: 2, Type: TypeNotification, Payload: []byte("x"), Tag: &tag}
	if err := a.Send(b.Addr(), m); err != nil {
		t.Fatal(err)
	}
	rx := waitFor(t, got, "tagged message")
	if rx.Tag == nil || *rx.Tag != tag {
		t.Errorf("tag = %v", rx.Tag)
	}
}

func TestUDPUntaggedBindingStripsTag(t *testing.T) {
	a, b := newUDPPair(t, false)
	got := make(chan *Message, 1)
	b.OnMessage(func(src Addr, m *Message) { got <- m })

	tag := logical.Tag{Time: 5}
	m := &Message{Service: 1, Method: 2, Type: TypeNotification, Payload: []byte("y"), Tag: &tag}
	if err := a.Send(b.Addr(), m); err != nil {
		t.Fatal(err)
	}
	rx := waitFor(t, got, "message")
	if rx.Tag != nil {
		t.Error("untagged binding transmitted a tag")
	}
	if !bytes.Equal(rx.Payload, []byte("y")) {
		t.Errorf("payload = %q", rx.Payload)
	}
}

func TestUDPRequestResponse(t *testing.T) {
	server, client := newUDPPair(t, true)
	server.OnMessage(func(src Addr, m *Message) {
		resp := &Message{
			Service: m.Service, Method: m.Method, Client: m.Client, Session: m.Session,
			InterfaceVersion: m.InterfaceVersion, Type: TypeResponse, Code: EOK,
			Payload: append([]byte("re:"), m.Payload...),
		}
		if m.Tag != nil {
			t2 := m.Tag.Delay(1000)
			resp.Tag = &t2
		}
		if err := server.Send(src, resp); err != nil {
			t.Error(err)
		}
	})
	got := make(chan *Message, 1)
	client.OnMessage(func(src Addr, m *Message) { got <- m })

	tag := logical.Tag{Time: 10}
	req := &Message{Service: 9, Method: 1, Client: 1, Session: 42,
		InterfaceVersion: 1, Type: TypeRequest, Payload: []byte("ping"), Tag: &tag}
	if err := client.Send(server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	rx := waitFor(t, got, "response")
	if string(rx.Payload) != "re:ping" || rx.Session != 42 {
		t.Errorf("response %+v", rx)
	}
	if rx.Tag == nil || rx.Tag.Time != 1010 {
		t.Errorf("response tag = %v", rx.Tag)
	}
}

func TestUDPSendAfterClose(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	dst := a.Addr()
	a.Close()
	if err := a.Send(dst, &Message{Service: 1, Method: 1, Type: TypeRequest}); err == nil {
		t.Error("want error sending on closed conn")
	}
	// Double close is safe.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// Raw garbage through the socket is dropped; the good message sent
// after it is the first one delivered.
func TestUDPDropsMalformedDatagram(t *testing.T) {
	_, b := newUDPPair(t, false)
	msgs := make(chan *Message, 2)
	b.OnMessage(func(src Addr, m *Message) { msgs <- m })

	raw, err := net.DialUDP("udp", nil, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	good := &Message{Service: 1, Method: 2, Type: TypeRequest, Payload: []byte("good")}
	for _, wire := range [][]byte{{1, 2, 3}, good.Marshal()} {
		if _, err := raw.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	if m := waitFor(t, msgs, "good message"); string(m.Payload) != "good" {
		t.Errorf("first delivery %q, want the good message", m.Payload)
	}
}
