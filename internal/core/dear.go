// Package core implements DEAR (Discrete Events for AUTOSAR), the paper's
// primary contribution: a framework that couples the deterministic
// reactor model with the service-oriented communication stack of the
// AUTOSAR Adaptive Platform.
//
// Four transactors bridge between reactor ports and AP service
// interfaces, exactly as in Figure 3 of the paper:
//
//   - ClientMethodTransactor — invokes a remote method when its request
//     port receives an event; emits the response on its response port.
//   - ServerMethodTransactor — turns incoming method invocations into
//     tagged port events for the server-logic reactor and sends the
//     response the logic produces.
//   - ClientEventTransactor — subscribes to an AP event and emits each
//     notification on a reactor port.
//   - ServerEventTransactor — publishes events from a reactor port as AP
//     notifications.
//
// Tags travel across the network in the modified SOME/IP binding's tag
// trailer. On the sending side each transactor adds its configured
// deadline D to the current tag; on the receiving side a physical action
// is scheduled at t + L + E (worst-case network latency plus clock
// synchronization bound), the PTIDES-style safe-to-process offset that
// guarantees in-order event handling across software components.
package core

import (
	"repro/internal/ara"
	"repro/internal/logical"
	"repro/internal/someip"
)

// LinkConfig carries the timing assumptions of a DEAR deployment.
type LinkConfig struct {
	// Latency is the assumed worst-case one-way communication latency L.
	Latency logical.Duration
	// ClockError is the assumed worst-case clock synchronization error E
	// between the communicating platforms (zero when both components run
	// on the same platform).
	ClockError logical.Duration
}

// SafeToProcessOffset returns L+E, the offset added to a received tag
// before it may be inserted into the receiving reactor network.
func (lc LinkConfig) SafeToProcessOffset() logical.Duration {
	return lc.Latency + lc.ClockError
}

// TimestampBypass pairs outgoing tags with the next message(s) that the
// standard ara::com API sends for a given (service, method): the service
// proxy and skeleton interfaces have no parameter for tags, so the
// transactor stages the tag here and the modified binding picks it up
// just before transmission (steps 2/5 and 13/16 in Figure 3).
type TimestampBypass struct {
	staged map[bypassKey]logical.Tag
}

type bypassKey struct {
	service someip.ServiceID
	method  someip.MethodID
}

// NewTimestampBypass creates an empty bypass.
func NewTimestampBypass() *TimestampBypass {
	return &TimestampBypass{staged: map[bypassKey]logical.Tag{}}
}

// Stage associates a tag with the next send(s) of (service, method).
func (b *TimestampBypass) Stage(service someip.ServiceID, method someip.MethodID, tag logical.Tag) {
	b.staged[bypassKey{service, method}] = tag
}

// Clear removes a staged tag after the send burst completes.
func (b *TimestampBypass) Clear(service someip.ServiceID, method someip.MethodID) {
	delete(b.staged, bypassKey{service, method})
}

// Peek returns the staged tag, if any.
func (b *TimestampBypass) Peek(service someip.ServiceID, method someip.MethodID) (logical.Tag, bool) {
	t, ok := b.staged[bypassKey{service, method}]
	return t, ok
}

// Binding is the paper's "modified SOME/IP binding": an ara.BindingHook
// that attaches staged tags to outgoing messages. Incoming tags are
// already decoded by the tagged Conn; the hook leaves them on the
// message for the transactors.
type Binding struct {
	bypass *TimestampBypass
}

// NewBinding creates a binding hook around a fresh, empty bypass.
func NewBinding() *Binding {
	return &Binding{bypass: NewTimestampBypass()}
}

// Bypass returns the timestamp bypass used by this binding.
func (b *Binding) Bypass() *TimestampBypass { return b.bypass }

// Outgoing implements ara.BindingHook: it retrieves the staged tag for
// the message's (service, method) and attaches it.
func (b *Binding) Outgoing(m *someip.Message) {
	if m.Tag != nil {
		return
	}
	if tag, ok := b.bypass.Peek(m.Service, m.Method); ok {
		t := tag
		m.Tag = &t
	}
}

// AttachBinding installs a DEAR binding on an ara runtime created with
// Config.Tagged == true, and returns it. This is the entry point for
// turning a standard SWC runtime into a DEAR-enabled one.
func AttachBinding(rt *ara.Runtime) *Binding {
	b := NewBinding()
	rt.SetBindingHook(b)
	return b
}
