// Package reactor implements the reactor model of computation introduced
// by Lohstroh et al. and used by the paper as the foundation for
// deterministic software components: reactors communicate through ports
// connected by channels, computation happens in reactions triggered by
// tagged events, and a runtime scheduler processes events in tag order,
// running the reactions triggered at each tag one at a time in an order
// fixed by the acyclic precedence graph.
//
// Logical actions schedule future events within a reactor; physical
// actions inject events from asynchronous contexts (sensors, network
// interrupts) and are the model's only sanctioned source of
// nondeterminism. Reactions may carry deadlines that bind logical to
// physical time and turn timing violations into observable errors.
package reactor

import (
	"fmt"

	"repro/internal/logical"
)

// Reactor is a named collection of reactions, ports, actions and timers.
// Reactors are created on an Environment before it runs.
type Reactor struct {
	env  *Environment
	name string

	reactions []*Reaction
	startup   *lifecycleTrigger
	shutdown  *lifecycleTrigger
}

// NewReactor creates a top-level reactor.
func (e *Environment) NewReactor(name string) *Reactor {
	e.mustBeAssembling("NewReactor")
	r := &Reactor{env: e, name: name, startup: &lifecycleTrigger{}, shutdown: &lifecycleTrigger{}}
	e.reactors = append(e.reactors, r)
	return r
}

// Startup returns the trigger that fires once at the start tag.
func (r *Reactor) Startup() Trigger { return r.startup }

// Shutdown returns the trigger that fires once at the stop tag.
func (r *Reactor) Shutdown() Trigger { return r.shutdown }

func (r *Reactor) String() string { return fmt.Sprintf("reactor(%s)", r.name) }

// Trigger is anything that can trigger a reaction: ports, actions,
// timers, startup and shutdown.
type Trigger interface {
	attach(rx *Reaction)
}

// Effect is anything a reaction may affect: output ports it writes and
// actions it schedules.
type Effect interface {
	declareWriter(rx *Reaction)
}

// lifecycleTrigger is a reactor's startup or shutdown trigger.
type lifecycleTrigger struct{ reactions []*Reaction }

func (s *lifecycleTrigger) attach(rx *Reaction) { s.reactions = append(s.reactions, rx) }

// Reaction is a unit of computation triggered by events. Reactions of the
// same reactor are mutually exclusive and execute in declaration order
// when triggered at the same tag.
type Reaction struct {
	reactor *Reactor
	name    string
	body    func(*Ctx)

	deadline        logical.Duration
	deadlineHandler func(*Ctx)

	// level in the acyclic precedence graph (set during assembly).
	level int
	// triggered marks the reaction for the tag being processed.
	triggered bool

	declaredEffects  map[Effect]bool
	declaredTriggers map[Trigger]bool
}

// AddReaction declares a new reaction. Triggers, effects, an optional
// deadline and the body are attached with the builder methods; the
// reaction is finalized by Do. A reaction's priority within its reactor
// is its declaration order.
func (r *Reactor) AddReaction(name string) *Reaction {
	r.env.mustBeAssembling("AddReaction")
	rx := &Reaction{
		reactor:          r,
		name:             name,
		declaredEffects:  map[Effect]bool{},
		declaredTriggers: map[Trigger]bool{},
	}
	r.reactions = append(r.reactions, rx)
	return rx
}

// Triggers declares the reaction's triggers.
func (rx *Reaction) Triggers(ts ...Trigger) *Reaction {
	rx.reactor.env.mustBeAssembling("Triggers")
	for _, t := range ts {
		rx.declaredTriggers[t] = true
		t.attach(rx)
	}
	return rx
}

// Effects declares ports the reaction may set and actions it may
// schedule. Setting an undeclared effect panics at run time, because the
// precedence graph would be unsound.
func (rx *Reaction) Effects(es ...Effect) *Reaction {
	rx.reactor.env.mustBeAssembling("Effects")
	for _, e := range es {
		rx.declaredEffects[e] = true
		e.declareWriter(rx)
	}
	return rx
}

// WithDeadline attaches a deadline: if the reaction is invoked at tag t
// but physical time already exceeds t+d, handler runs instead of the
// body. This is the mechanism that makes timing violations observable
// rather than silent.
func (rx *Reaction) WithDeadline(d logical.Duration, handler func(*Ctx)) *Reaction {
	rx.reactor.env.mustBeAssembling("WithDeadline")
	if d <= 0 {
		panic("reactor: deadline must be positive")
	}
	rx.deadline = d
	rx.deadlineHandler = handler
	return rx
}

// Do sets the reaction body and completes the declaration.
func (rx *Reaction) Do(body func(*Ctx)) *Reaction {
	rx.reactor.env.mustBeAssembling("Do")
	rx.body = body
	return rx
}

// Name returns "reactor.reaction".
func (rx *Reaction) Name() string { return rx.reactor.name + "." + rx.name }

func (rx *Reaction) String() string { return rx.Name() }

// Ctx is passed to reaction bodies and deadline handlers. The environment
// reuses one Ctx for every invocation, so a Ctx is valid only while its
// reaction runs: never keep it past the body's return.
type Ctx struct {
	env      *Environment
	reaction *Reaction
	tag      logical.Tag
}

// Tag returns the current logical tag.
func (c *Ctx) Tag() logical.Tag { return c.tag }

// PhysicalTime returns the current physical time from the environment's
// clock; without a clock it is the tag's time.
func (c *Ctx) PhysicalTime() logical.Time { return c.env.now() }

// Elapsed returns logical time since the start tag.
func (c *Ctx) Elapsed() logical.Duration {
	return logical.Duration(c.tag.Time - c.env.startTime)
}

// DoWork consumes d of physical time (the reaction's computation),
// leaving logical time untouched. Without a clock it does nothing.
func (c *Ctx) DoWork(d logical.Duration) {
	if c.env.opts.Clock != nil {
		c.env.opts.Clock.proc.Sleep(d)
	}
}

// RequestStop asks the runtime to shut down at the next microstep. All
// shutdown reactions will execute at that stop tag.
func (c *Ctx) RequestStop() { c.env.requestStopAt(c.tag.Next()) }
