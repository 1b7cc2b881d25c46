package someip

import (
	"fmt"

	"repro/internal/logical"
	"repro/internal/simnet"
)

// Conn is a SOME/IP binding over a simulated network endpoint. It
// marshals outbound messages and decodes inbound datagrams, dispatching
// them to the registered handler. A Conn in tagged mode is the paper's
// "modified SOME/IP binding": it appends the DEAR tag trailer to outgoing
// messages that carry a tag and strips/exposes trailers on reception.
// An untagged Conn is a standards-conformant binding that treats trailers
// as opaque payload bytes.
//
// Conn implements Endpoint; handlers run as kernel events at simulated
// delivery time, so a program using only Conns stays deterministic.
type Conn struct {
	ep     *simnet.Endpoint
	tagged bool
	closed bool
	onMsg  func(src Addr, m *Message)

	// scratch is the reusable marshal buffer of the send path: the wire
	// form only needs to live for the duration of Endpoint.Send (which
	// copies its payload before returning), so one per-Conn buffer
	// replaces a fresh allocation per outbound message.
	scratch []byte
	// msg and tag are the receive path's decode target: a handler may use
	// the *Message only during its callback (see OnMessage), so one per
	// Conn serves every datagram. Kernel events never nest, so a
	// delivery cannot start while the previous one is being handled.
	msg Message
	tag logical.Tag
}

// NewConn creates a binding over the endpoint. When tagged is true the
// binding understands the DEAR tag trailer.
func NewConn(ep *simnet.Endpoint, tagged bool) *Conn {
	c := &Conn{ep: ep, tagged: tagged}
	ep.OnReceive(c.receive)
	return c
}

// LocalAddr returns the bound address.
func (c *Conn) LocalAddr() Addr { return c.ep.Addr() }

// Endpoint returns the underlying network endpoint.
func (c *Conn) Endpoint() *simnet.Endpoint { return c.ep }

// OnMessage installs the inbound message handler. It runs as a kernel
// event at delivery time; src is always a simnet.Addr. The *Message and
// its Tag are the Conn's decode scratch, valid only during the callback;
// the payload aliases the delivered datagram, which the receiver owns.
func (c *Conn) OnMessage(fn func(src Addr, m *Message)) { c.onMsg = fn }

// Close unbinds the underlying endpoint; subsequent sends fail and
// datagrams sent to it are dropped (UDP semantics).
func (c *Conn) Close() error {
	c.closed = true
	c.ep.Close()
	return nil
}

// Send marshals the message into the Conn's scratch buffer and hands it
// to the endpoint, which copies it into the in-flight datagram before
// returning, so the scratch is free for the next send. In an untagged
// binding any Tag on the message is ignored (a standard binding has no
// way to transmit it) — this models composing DEAR components with
// unmodified middleware. dst must be a simnet.Addr.
func (c *Conn) Send(dst Addr, m *Message) error {
	if c.closed {
		return fmt.Errorf("someip: send on closed Conn")
	}
	simDst, ok := dst.(simnet.Addr)
	if !ok {
		return fmt.Errorf("someip: Conn.Send to non-simulated address %v (%s)", dst, dst.Network())
	}
	m = outgoing(m, c.tagged)
	size := m.WireSize()
	if cap(c.scratch) < size {
		c.scratch = make([]byte, size)
	}
	buf := c.scratch[:size]
	m.MarshalTo(buf)
	c.ep.Send(simDst, buf)
	return nil
}

// receive decodes one delivered datagram into the Conn's scratch
// message without copying: the payload aliases dg.Payload, which the
// network hands to the receiver for good. A datagram that does not
// decode is dropped.
func (c *Conn) receive(dg simnet.Datagram) {
	m := &c.msg
	err := decodeInto(m, dg.Payload)
	if err == nil {
		err = incoming(m, c.tagged, &c.tag)
	}
	if err == nil && c.onMsg != nil {
		c.onMsg(dg.Src, m)
	}
	c.msg = Message{} // drop the datagram reference
}
