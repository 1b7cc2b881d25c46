package reactor

import (
	"fmt"

	"repro/internal/logical"
)

// portBase carries the untyped bookkeeping shared by all Port[T].
type portBase struct {
	owner *Reactor
	name  string

	// reactions triggered when the port becomes present.
	reactions []*Reaction
	// writers are reactions that declared this port as an effect.
	writers []*Reaction
	// upstream reports whether an inbound connection exists (at most one).
	upstream bool

	present   bool
	presentAt logical.Tag
}

// connection is a typed edge between two ports.
type connection interface {
	// propagate transfers the upstream value downstream at the current tag.
	propagate(e *Environment)
	downstreamBase() *portBase
	upstreamBase() *portBase
}

// Port is a typed reactor port. Values set on an output port propagate
// instantaneously (same tag) along its connections.
type Port[T any] struct {
	portBase
	value T
	conns []*typedConnection[T]
}

func newPort[T any](r *Reactor, name string) *Port[T] {
	r.env.mustBeAssembling("NewInputPort/NewOutputPort")
	p := &Port[T]{portBase: portBase{owner: r, name: name}}
	r.env.ports = append(r.env.ports, &p.portBase)
	return p
}

// NewInputPort creates an input port.
func NewInputPort[T any](r *Reactor, name string) *Port[T] { return newPort[T](r, name) }

// NewOutputPort creates an output port.
func NewOutputPort[T any](r *Reactor, name string) *Port[T] { return newPort[T](r, name) }

// attach implements Trigger.
func (p *Port[T]) attach(rx *Reaction) { p.reactions = append(p.reactions, rx) }

// declareWriter implements Effect.
func (p *Port[T]) declareWriter(rx *Reaction) { p.writers = append(p.writers, rx) }

// Name returns "reactor.port".
func (p *Port[T]) Name() string { return p.owner.name + "." + p.name }

// Get returns the port's value and presence at the current tag. The
// calling reaction must have declared the port as a trigger.
func (p *Port[T]) Get(c *Ctx) (T, bool) {
	if !c.reaction.declaredTriggers[Trigger(p)] {
		panic(fmt.Sprintf("reactor: %s reads undeclared port %s", c.reaction, p.Name()))
	}
	var zero T
	if !p.present || p.presentAt != c.tag {
		return zero, false
	}
	return p.value, true
}

// Set writes the port at the current tag and triggers downstream
// reactions at the same tag. The calling reaction must have declared the
// port as an effect.
func (p *Port[T]) Set(c *Ctx, v T) {
	if !c.reaction.declaredEffects[Effect(p)] {
		panic(fmt.Sprintf("reactor: %s sets undeclared port %s", c.reaction, p.Name()))
	}
	p.setNow(c.env, v)
}

// setNow performs the actual write at the environment's current tag.
func (p *Port[T]) setNow(e *Environment, v T) {
	p.value = v
	p.present = true
	p.presentAt = e.currentTag
	e.markPortSet(&p.portBase)
	for _, rx := range p.reactions {
		e.enqueueReaction(rx)
	}
	for _, conn := range p.conns {
		conn.propagate(e)
	}
}

// typedConnection links an upstream port to a downstream port.
type typedConnection[T any] struct {
	up, down *Port[T]
}

func (c *typedConnection[T]) downstreamBase() *portBase { return &c.down.portBase }
func (c *typedConnection[T]) upstreamBase() *portBase   { return &c.up.portBase }

func (c *typedConnection[T]) propagate(e *Environment) {
	c.down.setNow(e, c.up.value)
}

// Connect wires an upstream port to a downstream port with zero logical
// delay: values appear downstream at the same tag.
func Connect[T any](up, down *Port[T]) {
	env := up.owner.env
	env.mustBeAssembling("Connect")
	if down.owner.env != env {
		panic("reactor: cannot connect ports of different environments")
	}
	if down.upstream {
		panic(fmt.Sprintf("reactor: port %s already has an upstream connection", down.Name()))
	}
	down.upstream = true
	conn := &typedConnection[T]{up: up, down: down}
	up.conns = append(up.conns, conn)
	env.connections = append(env.connections, conn)
}
