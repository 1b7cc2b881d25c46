package someip

import (
	"errors"

	"repro/internal/logical"
)

// Addr is a substrate-independent endpoint address. Both the simulated
// network's simnet.Addr and the real-socket *net.UDPAddr satisfy it, so
// everything above the binding (the ara::com runtime, the DEAR binding
// hook, the transactors) can name peers without knowing which substrate
// carries the bytes.
//
// Addr values of the same substrate are comparable with == in the
// simulated case (simnet.Addr is a value type); UDP addresses compare by
// pointer and should be compared via String() when identity matters.
type Addr interface {
	// Network names the substrate ("sim" for the simulated switched
	// Ethernet, "udp" for real sockets).
	Network() string
	// String renders the address for logs and diagnostics.
	String() string
}

// Endpoint is the pluggable SOME/IP transport: a bound binding instance
// that marshals outgoing messages onto some substrate and decodes
// inbound datagrams, dispatching them to the registered handler. It is
// the seam the paper's "substrate independence" claim rests on — the
// modified (tagged) binding behaves identically whether the bytes cross
// the deterministic simulated network (Conn) or a real UDP socket
// (UDPConn).
//
// An ara runtime sees every endpoint deliver on its kernel's goroutine:
// Conn runs handlers as kernel events at simulated delivery time, and
// ara.NewUDPRuntime hands each UDPConn message to its real-time driver
// before any handler (or wrapper) runs. Inbound input a binding
// rejects — a malformed header or tag trailer, a SOME/IP-TP segment —
// is dropped, never delivered.
type Endpoint interface {
	// Send marshals and transmits the message. In an untagged binding
	// any Tag on the message is dropped (a standard binding has no way
	// to transmit it). dst must be an address of the endpoint's own
	// substrate.
	Send(dst Addr, m *Message) error
	// OnMessage installs the inbound message handler. m and its Tag
	// are valid only during the callback (Conn decodes every datagram
	// into one scratch Message); a handler that keeps any header field
	// or the tag past its return copies it. m.Payload is the receiver's:
	// it may be kept and mutated, and no other receiver sees the bytes.
	OnMessage(fn func(src Addr, m *Message))
	// LocalAddr returns the bound address.
	LocalAddr() Addr
	// Close releases the underlying substrate resource. Further sends
	// fail; inbound traffic is dropped.
	Close() error
}

// Both bindings implement the transport seam.
var (
	_ Endpoint = (*Conn)(nil)
	_ Endpoint = (*UDPConn)(nil)
)

// ErrSegmented is the decode error for an inbound SOME/IP-TP segment
// (TPFlag set). Neither binding segments or reassembles, so a segment is
// dropped, never delivered with its TP header as payload.
var ErrSegmented = errors.New("someip: SOME/IP-TP segment (unsupported)")

// outgoing is the send step both bindings share: the message as it goes
// on the wire. An untagged binding sends a copy without the tag.
func outgoing(m *Message, tagged bool) *Message {
	if tagged || m.Tag == nil {
		return m
	}
	clone := *m
	clone.Tag = nil
	return &clone
}

// incoming is the receive step both bindings share, run on a decoded
// message whose payload still holds any trailer. It rejects SOME/IP-TP
// segments and, in a tagged binding, splits off the DEAR tag trailer,
// storing the tag in *tag (a fresh one when tag is nil) and pointing
// m.Tag at it.
func incoming(m *Message, tagged bool, tag *logical.Tag) error {
	if m.Type&TPFlag != 0 {
		return ErrSegmented
	}
	if !tagged {
		return nil
	}
	if t, rest, ok := splitTagTrailer(m.Payload); ok {
		if tag == nil {
			tag = new(logical.Tag)
		}
		*tag = t
		m.Tag = tag
		m.Payload = rest
	}
	return nil
}
