// Package someip implements the SOME/IP wire protocol (Scalable
// service-Oriented MiddlewarE over IP) as specified by the AUTOSAR
// Foundation: the 16-byte message header with request/response/
// notification semantics, service-discovery entries and options, and the
// DEAR tag-trailer extension that carries reactor tags across the network
// ("modified SOME/IP binding" in the paper).
package someip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/logical"
)

// ServiceID identifies a service interface.
type ServiceID uint16

// MethodID identifies a method or, with the EventFlag bit set, an event.
type MethodID uint16

// EventFlag is the high bit of a MethodID; set for events/notifications
// per the SOME/IP specification.
const EventFlag MethodID = 0x8000

// EventID builds the MethodID for event number n.
func EventID(n uint16) MethodID { return MethodID(n) | EventFlag }

// IsEvent reports whether the method identifier denotes an event.
func (m MethodID) IsEvent() bool { return m&EventFlag != 0 }

// ClientID identifies a client within the vehicle network.
type ClientID uint16

// SessionID correlates a response with its request. Session 0 means
// "session handling inactive".
type SessionID uint16

// InstanceID distinguishes instances of the same service. It is not part
// of the SOME/IP header (it lives in SD and endpoint configuration).
type InstanceID uint16

// MessageType is the SOME/IP message type field.
type MessageType uint8

// Message types per the SOME/IP protocol specification.
const (
	TypeRequest         MessageType = 0x00 // expects a response
	TypeRequestNoReturn MessageType = 0x01 // fire & forget
	TypeNotification    MessageType = 0x02 // event
	TypeResponse        MessageType = 0x80
	TypeError           MessageType = 0x81
	// TPFlag marks segmented (SOME/IP-TP) messages. The bindings do
	// not reassemble: an inbound segment is an ErrSegmented decode error.
	TPFlag MessageType = 0x20
)

func (t MessageType) String() string {
	switch t {
	case TypeRequest:
		return "REQUEST"
	case TypeRequestNoReturn:
		return "REQUEST_NO_RETURN"
	case TypeNotification:
		return "NOTIFICATION"
	case TypeResponse:
		return "RESPONSE"
	case TypeError:
		return "ERROR"
	default:
		return fmt.Sprintf("MessageType(0x%02x)", uint8(t))
	}
}

// ReturnCode is the SOME/IP return code field.
type ReturnCode uint8

// Return codes per the SOME/IP protocol specification.
const (
	EOK                    ReturnCode = 0x00
	ENotOK                 ReturnCode = 0x01
	EUnknownService        ReturnCode = 0x02
	EUnknownMethod         ReturnCode = 0x03
	ENotReady              ReturnCode = 0x04
	ENotReachable          ReturnCode = 0x05
	ETimeout               ReturnCode = 0x06
	EWrongProtocolVersion  ReturnCode = 0x07
	EWrongInterfaceVersion ReturnCode = 0x08
	EMalformedMessage      ReturnCode = 0x09
	EWrongMessageType      ReturnCode = 0x0a
	// EMissingTag is a DEAR-specific application error: a transactor
	// received an untagged message while configured to require tags.
	EMissingTag ReturnCode = 0x20
)

func (c ReturnCode) String() string {
	switch c {
	case EOK:
		return "E_OK"
	case ENotOK:
		return "E_NOT_OK"
	case EUnknownService:
		return "E_UNKNOWN_SERVICE"
	case EUnknownMethod:
		return "E_UNKNOWN_METHOD"
	case ENotReady:
		return "E_NOT_READY"
	case ENotReachable:
		return "E_NOT_REACHABLE"
	case ETimeout:
		return "E_TIMEOUT"
	case EWrongProtocolVersion:
		return "E_WRONG_PROTOCOL_VERSION"
	case EWrongInterfaceVersion:
		return "E_WRONG_INTERFACE_VERSION"
	case EMalformedMessage:
		return "E_MALFORMED_MESSAGE"
	case EWrongMessageType:
		return "E_WRONG_MESSAGE_TYPE"
	case EMissingTag:
		return "E_MISSING_TAG"
	default:
		return fmt.Sprintf("ReturnCode(0x%02x)", uint8(c))
	}
}

// ProtocolVersion is the only SOME/IP protocol version in existence.
const ProtocolVersion uint8 = 0x01

// HeaderSize is the size of the SOME/IP header in bytes.
const HeaderSize = 16

// lengthFieldCovers is the part of the header counted by the Length field
// (everything after the Length field itself).
const lengthFieldCovers = 8

// Message is a SOME/IP message. The optional Tag is the DEAR extension:
// when present, Marshal appends the tag trailer and the Length field
// covers it, so standards-conformant receivers treat it as extra payload.
type Message struct {
	Service          ServiceID
	Method           MethodID
	Client           ClientID
	Session          SessionID
	InterfaceVersion uint8
	Type             MessageType
	Code             ReturnCode
	Payload          []byte

	// Tag is the DEAR tagged-message extension (nil = untagged).
	Tag *logical.Tag
}

// Errors returned by Unmarshal.
var (
	ErrShortMessage    = errors.New("someip: message shorter than header")
	ErrLengthMismatch  = errors.New("someip: length field inconsistent with buffer")
	ErrProtocolVersion = errors.New("someip: unsupported protocol version")
)

// MessageID returns the 32-bit message identifier (service ⟨⟨16 | method).
func (m *Message) MessageID() uint32 {
	return uint32(m.Service)<<16 | uint32(m.Method)
}

// RequestID returns the 32-bit request identifier (client ⟨⟨16 | session).
func (m *Message) RequestID() uint32 {
	return uint32(m.Client)<<16 | uint32(m.Session)
}

// WireSize returns the marshaled size in bytes.
func (m *Message) WireSize() int {
	n := HeaderSize + len(m.Payload)
	if m.Tag != nil {
		n += TagTrailerSize
	}
	return n
}

// Marshal encodes the message. The trailer is appended when Tag is set.
func (m *Message) Marshal() []byte {
	buf := make([]byte, m.WireSize())
	m.MarshalTo(buf)
	return buf
}

// MarshalTo encodes into buf, which must be at least WireSize() long.
// It returns the number of bytes written.
func (m *Message) MarshalTo(buf []byte) int {
	size := m.WireSize()
	if len(buf) < size {
		panic("someip: MarshalTo buffer too small")
	}
	be := binary.BigEndian
	be.PutUint32(buf[0:4], m.MessageID())
	be.PutUint32(buf[4:8], uint32(size-lengthFieldCovers))
	be.PutUint32(buf[8:12], m.RequestID())
	buf[12] = ProtocolVersion
	buf[13] = m.InterfaceVersion
	buf[14] = uint8(m.Type)
	buf[15] = uint8(m.Code)
	copy(buf[HeaderSize:], m.Payload)
	if m.Tag != nil {
		putTagTrailer(buf[HeaderSize+len(m.Payload):], *m.Tag)
	}
	return size
}

// Unmarshal decodes a message. It does not interpret the tag trailer:
// a trailer, if any, remains part of Payload (this is the behaviour of an
// unmodified, standards-conformant binding). Use UnmarshalTagged for the
// DEAR modified binding. The payload is copied, so the caller may reuse
// buf (UDPConn reads every datagram into one buffer).
func Unmarshal(buf []byte) (*Message, error) {
	var m Message
	if err := decodeInto(&m, buf); err != nil {
		return nil, err
	}
	payload := make([]byte, len(m.Payload))
	copy(payload, m.Payload)
	m.Payload = payload
	return &m, nil
}

// UnmarshalTagged decodes a message and, if a DEAR tag trailer is present,
// strips it from the payload and exposes it as Tag. This is the receive
// path of the paper's modified SOME/IP binding. Like Unmarshal it copies
// the payload.
func UnmarshalTagged(buf []byte) (*Message, error) {
	m, err := Unmarshal(buf)
	if err != nil {
		return nil, err
	}
	if tag, rest, ok := splitTagTrailer(m.Payload); ok {
		m.Tag = &tag
		m.Payload = rest
	}
	return m, nil
}

// decodeInto decodes buf into m without copying: m.Payload aliases buf
// and m.Tag is nil (the trailer, if any, is still part of the payload).
// It is the receive path of Conn, to which the simulated network hands
// each datagram buffer for good.
func decodeInto(m *Message, buf []byte) error {
	if len(buf) < HeaderSize {
		return ErrShortMessage
	}
	be := binary.BigEndian
	length := be.Uint32(buf[4:8])
	if int(length)+lengthFieldCovers != len(buf) {
		return fmt.Errorf("%w: field %d, buffer %d", ErrLengthMismatch, length, len(buf))
	}
	if buf[12] != ProtocolVersion {
		return fmt.Errorf("%w: 0x%02x", ErrProtocolVersion, buf[12])
	}
	msgID := be.Uint32(buf[0:4])
	reqID := be.Uint32(buf[8:12])
	*m = Message{
		Service:          ServiceID(msgID >> 16),
		Method:           MethodID(msgID & 0xffff),
		Client:           ClientID(reqID >> 16),
		Session:          SessionID(reqID & 0xffff),
		InterfaceVersion: buf[13],
		Type:             MessageType(buf[14]),
		Code:             ReturnCode(buf[15]),
		Payload:          buf[HeaderSize:],
	}
	return nil
}

func (m *Message) String() string {
	tag := ""
	if m.Tag != nil {
		tag = " tag=" + m.Tag.String()
	}
	return fmt.Sprintf("someip[%04x.%04x %s %s req=%08x len=%d%s]",
		uint16(m.Service), uint16(m.Method), m.Type, m.Code, m.RequestID(), len(m.Payload), tag)
}
