package someip

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// This file is the interface-conformance suite for the Endpoint seam:
// every behavioural guarantee the ara runtime relies on is exercised
// identically against the simulated binding (Conn) and the real-socket
// binding (UDPConn).

// endpointFixture builds a pair of bound endpoints on one substrate.
// pump drives pending deliveries (sim: run the kernel; udp: real time
// passes on its own) and returns once the substrate is quiescent enough
// for another wait poll. raw sends wire bytes to b from a third,
// binding-less socket, as foreign input arrives.
type endpointFixture struct {
	a, b Endpoint
	pump func()
	raw  func(wire []byte)
}

type endpointBuilder struct {
	name  string
	short bool // runnable under -short (no real sockets)
	build func(t *testing.T, tagged bool) endpointFixture
}

func buildSimPair(t *testing.T, tagged bool) endpointFixture {
	t.Helper()
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	ha := n.AddHost("a", nil)
	a := NewConn(ha.MustBind(1000), tagged)
	b := NewConn(n.AddHost("b", nil).MustBind(2000), tagged)
	rawEP := ha.MustBind(1001)
	raw := func(wire []byte) { rawEP.Send(b.Endpoint().Addr(), wire) }
	return endpointFixture{a: a, b: b, pump: func() { k.RunAll() }, raw: raw}
}

func buildUDPPair(t *testing.T, tagged bool) endpointFixture {
	t.Helper()
	a, err := ListenUDP("127.0.0.1:0", tagged)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	b, err := ListenUDP("127.0.0.1:0", tagged)
	if err != nil {
		a.Close()
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	rawConn, err := net.DialUDP("udp", nil, b.Addr())
	if err != nil {
		a.Close()
		b.Close()
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
		rawConn.Close()
	})
	raw := func(wire []byte) {
		if _, err := rawConn.Write(wire); err != nil {
			t.Error(err)
		}
	}
	return endpointFixture{a: a, b: b, pump: func() { time.Sleep(2 * time.Millisecond) }, raw: raw}
}

var endpointBuilders = []endpointBuilder{
	{name: "sim", short: true, build: buildSimPair},
	{name: "udp", short: false, build: buildUDPPair},
}

// collector gathers delivered messages thread-safely (a bare UDPConn's
// handlers run on its reader goroutine).
type collector struct {
	mu   sync.Mutex
	srcs []Addr
	msgs []*Message
}

func (c *collector) install(e Endpoint) {
	e.OnMessage(func(src Addr, m *Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.srcs = append(c.srcs, src)
		c.msgs = append(c.msgs, keep(m))
	})
}

func (c *collector) wait(t *testing.T, pump func(), n int) ([]Addr, []*Message) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		pump()
		c.mu.Lock()
		if len(c.msgs) >= n {
			srcs := append([]Addr(nil), c.srcs...)
			msgs := append([]*Message(nil), c.msgs...)
			c.mu.Unlock()
			return srcs, msgs
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timeout: got %d of %d messages", len(c.msgs), n)
		}
	}
}

func forEachEndpoint(t *testing.T, tagged bool, body func(t *testing.T, f endpointFixture)) {
	for _, eb := range endpointBuilders {
		t.Run(eb.name, func(t *testing.T) {
			if !eb.short && testing.Short() {
				t.Skip("real sockets skipped with -short")
			}
			body(t, eb.build(t, tagged))
		})
	}
}

func TestEndpointRoundTrip(t *testing.T) {
	forEachEndpoint(t, false, func(t *testing.T, f endpointFixture) {
		var c collector
		c.install(f.b)
		m := &Message{Service: 0x1234, Method: 1, Client: 2, Session: 3,
			InterfaceVersion: 1, Type: TypeRequest, Payload: []byte("hello")}
		if err := f.a.Send(f.b.LocalAddr(), m); err != nil {
			t.Fatal(err)
		}
		srcs, msgs := c.wait(t, f.pump, 1)
		if msgs[0].Service != m.Service || !bytes.Equal(msgs[0].Payload, m.Payload) {
			t.Errorf("received %+v", msgs[0])
		}
		// The source address identifies the sender on its own substrate.
		if srcs[0].Network() != f.a.LocalAddr().Network() {
			t.Errorf("src network %q != sender network %q", srcs[0].Network(), f.a.LocalAddr().Network())
		}
		if srcs[0].String() != f.a.LocalAddr().String() {
			t.Errorf("src %v != sender %v", srcs[0], f.a.LocalAddr())
		}
		f.pump()
		if _, msgs := c.wait(t, f.pump, 1); len(msgs) != 1 {
			t.Errorf("received %d messages, want 1", len(msgs))
		}
	})
}

func TestEndpointTaggedCarriesTag(t *testing.T) {
	forEachEndpoint(t, true, func(t *testing.T, f endpointFixture) {
		var c collector
		c.install(f.b)
		tag := logical.Tag{Time: 777, Microstep: 2}
		m := &Message{Service: 1, Method: 2, Type: TypeNotification, Payload: []byte("x"), Tag: &tag}
		if err := f.a.Send(f.b.LocalAddr(), m); err != nil {
			t.Fatal(err)
		}
		_, msgs := c.wait(t, f.pump, 1)
		if msgs[0].Tag == nil || *msgs[0].Tag != tag {
			t.Errorf("tag = %v", msgs[0].Tag)
		}
	})
}

func TestEndpointUntaggedStripsTag(t *testing.T) {
	forEachEndpoint(t, false, func(t *testing.T, f endpointFixture) {
		var c collector
		c.install(f.b)
		tag := logical.Tag{Time: 5}
		m := &Message{Service: 1, Method: 2, Type: TypeNotification, Payload: []byte("y"), Tag: &tag}
		if err := f.a.Send(f.b.LocalAddr(), m); err != nil {
			t.Fatal(err)
		}
		_, msgs := c.wait(t, f.pump, 1)
		if msgs[0].Tag != nil {
			t.Error("untagged binding transmitted a tag")
		}
		if !bytes.Equal(msgs[0].Payload, []byte("y")) {
			t.Errorf("payload = %q", msgs[0].Payload)
		}
	})
}

// An inbound SOME/IP-TP segment is dropped on both bindings: a
// well-formed single final segment at offset 0 is never delivered with
// its TP header as payload, and the good message sent after it is the
// only one that arrives.
func TestEndpointRejectsTPSegments(t *testing.T) {
	forEachEndpoint(t, true, func(t *testing.T, f endpointFixture) {
		var c collector
		c.install(f.b)
		tpHeader := []byte{0, 0, 0, 0} // offset 0, more-segments flag clear
		seg := &Message{Service: 1, Method: 2, Client: 3, Session: 4, InterfaceVersion: 1,
			Type: TypeRequest | TPFlag, Payload: append(tpHeader, "segment"...)}
		good := &Message{Service: 1, Method: 2, Client: 3, Session: 5, InterfaceVersion: 1,
			Type: TypeRequest, Payload: []byte("good")}
		f.raw(seg.Marshal())
		f.raw(good.Marshal())
		c.wait(t, f.pump, 1)
		f.pump()
		if _, msgs := c.wait(t, f.pump, 1); len(msgs) != 1 || string(msgs[0].Payload) != "good" {
			t.Errorf("delivered %d messages (first %+v), want only the good one", len(msgs), msgs[0])
		}
	})
}

// The receive step both bindings share rejects a segment before it
// looks for a tag trailer.
func TestIncomingRejectsSegment(t *testing.T) {
	m := &Message{Service: 1, Method: 2, Type: TypeRequest | TPFlag, Payload: []byte{0, 0, 0, 0}}
	for _, tagged := range []bool{false, true} {
		if err := incoming(m, tagged, nil); !errors.Is(err, ErrSegmented) {
			t.Errorf("tagged=%v: incoming = %v, want ErrSegmented", tagged, err)
		}
	}
}

func TestEndpointSendAfterCloseFails(t *testing.T) {
	forEachEndpoint(t, false, func(t *testing.T, f endpointFixture) {
		dst := f.b.LocalAddr()
		if err := f.a.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := f.a.Send(dst, &Message{Service: 1, Method: 1, Type: TypeRequest}); err == nil {
			t.Error("want error sending on closed endpoint")
		}
		// Double close is safe.
		if err := f.a.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
	})
}
