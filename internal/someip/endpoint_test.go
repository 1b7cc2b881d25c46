package someip

import (
	"bytes"
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
// for another wait poll.
type endpointFixture struct {
	a, b Endpoint
	pump func()
}

type endpointBuilder struct {
	name  string
	short bool // runnable under -short (no real sockets)
	build func(t *testing.T, tagged bool, mtu int) endpointFixture
}

func buildSimPair(t *testing.T, tagged bool, mtu int) endpointFixture {
	t.Helper()
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	a := NewConnMTU(n.AddHost("a", nil).MustBind(1000), tagged, mtu)
	b := NewConnMTU(n.AddHost("b", nil).MustBind(2000), tagged, mtu)
	return endpointFixture{a: a, b: b, pump: func() { k.RunAll() }}
}

func buildUDPPair(t *testing.T, tagged bool, mtu int) endpointFixture {
	t.Helper()
	a, err := ListenUDP("127.0.0.1:0", tagged, mtu)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	b, err := ListenUDP("127.0.0.1:0", tagged, mtu)
	if err != nil {
		a.Close()
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return endpointFixture{a: a, b: b, pump: func() { time.Sleep(2 * time.Millisecond) }}
}

var endpointBuilders = []endpointBuilder{
	{name: "sim", short: true, build: buildSimPair},
	{name: "udp", short: false, build: buildUDPPair},
}

// collector gathers delivered messages thread-safely (UDP handlers run
// on the reader goroutine).
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

func forEachEndpoint(t *testing.T, tagged bool, mtu int, body func(t *testing.T, f endpointFixture)) {
	for _, eb := range endpointBuilders {
		t.Run(eb.name, func(t *testing.T) {
			if !eb.short && testing.Short() {
				t.Skip("real sockets skipped with -short")
			}
			body(t, eb.build(t, tagged, mtu))
		})
	}
}

func TestEndpointRoundTrip(t *testing.T) {
	forEachEndpoint(t, false, 0, func(t *testing.T, f endpointFixture) {
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
		sent, _, _ := f.a.Stats()
		_, received, _ := f.b.Stats()
		if sent != 1 || received != 1 {
			t.Errorf("stats: sent=%d received=%d", sent, received)
		}
	})
}

func TestEndpointTaggedCarriesTag(t *testing.T) {
	forEachEndpoint(t, true, 0, func(t *testing.T, f endpointFixture) {
		if !f.a.Tagged() || !f.b.Tagged() {
			t.Fatal("endpoints should report Tagged")
		}
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
	forEachEndpoint(t, false, 0, func(t *testing.T, f endpointFixture) {
		if f.a.Tagged() {
			t.Fatal("endpoint should report untagged")
		}
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

func TestEndpointSegmentsOverMTU(t *testing.T) {
	forEachEndpoint(t, true, 1400, func(t *testing.T, f endpointFixture) {
		var c collector
		c.install(f.b)
		payload := make([]byte, 6000)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		tag := logical.Tag{Time: 99, Microstep: 1}
		m := &Message{Service: 1, Method: EventID(1), Type: TypeNotification, Payload: payload, Tag: &tag}
		if err := f.a.Send(f.b.LocalAddr(), m); err != nil {
			t.Fatal(err)
		}
		_, msgs := c.wait(t, f.pump, 1)
		if !bytes.Equal(msgs[0].Payload, payload) {
			t.Error("payload corrupted across TP segmentation")
		}
		if msgs[0].Tag == nil || *msgs[0].Tag != tag {
			t.Errorf("tag = %v", msgs[0].Tag)
		}
		if msgs[0].Type&TPFlag != 0 {
			t.Error("TP flag leaked to consumer")
		}
		sent, _, _ := f.a.Stats()
		if sent < 4 {
			t.Errorf("sent = %d datagrams, expected several segments", sent)
		}
	})
}

// A message that cannot be segmented (the MTU leaves no room for TP
// payload) is a send failure: Send returns the error, and the inbound
// side's decode-error count and error handler stay untouched.
func TestEndpointSegmentFailureIsSendError(t *testing.T) {
	forEachEndpoint(t, false, 20, func(t *testing.T, f endpointFixture) {
		var inbound []error
		f.a.OnError(func(src Addr, err error) { inbound = append(inbound, err) })
		m := &Message{Service: 1, Method: 1, Type: TypeRequest, Payload: make([]byte, 100)}
		if err := f.a.Send(f.b.LocalAddr(), m); err == nil {
			t.Fatal("want error: MTU 20 leaves no room for TP payload")
		}
		if sent, _, decodeErrs := f.a.Stats(); sent != 0 || decodeErrs != 0 {
			t.Errorf("stats after failed send: sent=%d decodeErrors=%d, want 0 0", sent, decodeErrs)
		}
		if len(inbound) != 0 {
			t.Errorf("send failure reached the inbound error handler: %v", inbound)
		}
	})
}

func TestEndpointSendAfterCloseFails(t *testing.T) {
	forEachEndpoint(t, false, 0, func(t *testing.T, f endpointFixture) {
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
