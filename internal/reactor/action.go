package reactor

import (
	"fmt"

	"repro/internal/logical"
)

// actionBase carries untyped action bookkeeping.
type actionBase struct {
	owner    *Reactor
	name     string
	minDelay logical.Duration
	physical bool

	reactions []*Reaction

	present   bool
	presentAt logical.Tag
	// asyncTag is the tag of the latest ScheduleAsync event.
	asyncTag logical.Tag
}

// Action is a typed schedulable event source. Logical actions are
// scheduled from reactions and produce events with a tag relative to the
// current tag; physical actions are scheduled from outside the
// reactions (ScheduleAsync, ScheduleAt) and are tagged with physical
// time.
type Action[T any] struct {
	actionBase
	value T
}

// NewLogicalAction creates a logical action with the given minimum delay.
// Scheduling with total delay zero produces an event one microstep later.
func NewLogicalAction[T any](r *Reactor, name string, minDelay logical.Duration) *Action[T] {
	r.env.mustBeAssembling("NewLogicalAction")
	if minDelay < 0 {
		panic("reactor: negative action delay")
	}
	return &Action[T]{actionBase: actionBase{owner: r, name: name, minDelay: minDelay}}
}

// NewPhysicalAction creates a physical action. Its events are tagged
// with the physical time of scheduling (plus the minimum delay); it is
// the sanctioned interface for sporadic sensors, interrupts and network
// receptions.
func NewPhysicalAction[T any](r *Reactor, name string, minDelay logical.Duration) *Action[T] {
	r.env.mustBeAssembling("NewPhysicalAction")
	if minDelay < 0 {
		panic("reactor: negative action delay")
	}
	return &Action[T]{actionBase: actionBase{owner: r, name: name, minDelay: minDelay, physical: true}}
}

// attach implements Trigger.
func (a *Action[T]) attach(rx *Reaction) { a.reactions = append(a.reactions, rx) }

// declareWriter implements Effect.
func (a *Action[T]) declareWriter(rx *Reaction) {}

// Name returns "reactor.action".
func (a *Action[T]) Name() string { return a.owner.name + "." + a.name }

// Get returns the action's value and presence at the current tag.
func (a *Action[T]) Get(c *Ctx) (T, bool) {
	if !c.reaction.declaredTriggers[Trigger(a)] {
		panic(fmt.Sprintf("reactor: %s reads undeclared action %s", c.reaction, a.Name()))
	}
	var zero T
	if !a.present || a.presentAt != c.tag {
		return zero, false
	}
	return a.value, true
}

// Schedule schedules the (logical) action from within a reaction with an
// extra delay on top of the minimum delay. The resulting event's tag is
// current.Delay(minDelay+extra). The calling reaction must have declared
// the action as an effect.
func (a *Action[T]) Schedule(c *Ctx, v T, extra logical.Duration) {
	if a.physical {
		panic(fmt.Sprintf("reactor: physical action %s must be scheduled with ScheduleAsync", a.Name()))
	}
	if !c.reaction.declaredEffects[Effect(a)] {
		panic(fmt.Sprintf("reactor: %s schedules undeclared action %s", c.reaction, a.Name()))
	}
	if extra < 0 {
		panic("reactor: negative schedule delay")
	}
	tag := c.tag.Delay(a.minDelay + extra)
	c.env.scheduleEvent(tag, func(e *Environment) { a.fire(e, v) })
}

// ScheduleAsync schedules the (physical) action from outside the
// reactions, such as a network reception's callback, in the
// environment's own execution context. The event is tagged
// physicalNow+minDelay, raised to the microstep after the current tag
// and after the action's previous ScheduleAsync event, so that events
// of one physical instant pile up in superdense time and none is lost.
// The scheduler is woken if it is waiting.
func (a *Action[T]) ScheduleAsync(v T) logical.Tag {
	if !a.physical {
		panic(fmt.Sprintf("reactor: logical action %s must be scheduled from a reaction", a.Name()))
	}
	e := a.owner.env
	base := logical.Tag{Time: e.now().Add(a.minDelay)}
	floor := e.currentTag
	if floor.Before(a.asyncTag) {
		floor = a.asyncTag
	}
	if base.Before(floor.Next()) {
		base = floor.Next()
	}
	a.asyncTag = base
	e.scheduleEvent(base, func(env *Environment) { a.fire(env, v) })
	e.interrupt()
	return base
}

// ScheduleAt schedules a physical action at an explicit tag, in the
// environment's own execution context, as ScheduleAsync. This is the
// safe-to-process primitive used by the DEAR transactors: the tag has
// already been advanced by D+L+E, and the runtime's physical-time barrier
// does the rest. ok reports whether the tag was safe: a tag whose time
// point lies in the physical past means a latency or clock-error bound
// was violated; a tag at or before the current logical tag is bumped to
// the next microstep so tag order is never violated. In both cases the
// event is still delivered — the violated assumption becomes an
// observable error, never silent corruption.
func (a *Action[T]) ScheduleAt(v T, tag logical.Tag) (logical.Tag, bool) {
	if !a.physical {
		panic(fmt.Sprintf("reactor: ScheduleAt requires a physical action (%s)", a.Name()))
	}
	e := a.owner.env
	ok := true
	if tag.Time < e.now() {
		// The physical-time barrier can no longer guarantee that no
		// earlier-tagged message is in flight: the L+E bound was broken.
		ok = false
	}
	floor := e.currentTag.Next()
	if tag.Before(floor) {
		tag = floor
		ok = false
	}
	e.scheduleEvent(tag, func(env *Environment) { a.fire(env, v) })
	e.interrupt()
	return tag, ok
}

// fire makes the action present and triggers its reactions. Runs inside
// the scheduler at the event's tag.
func (a *Action[T]) fire(e *Environment, v T) {
	a.value = v
	a.present = true
	a.presentAt = e.currentTag
	e.markActionSet(&a.actionBase)
	for _, rx := range a.reactions {
		e.enqueueReaction(rx)
	}
}

// Timer triggers reactions periodically: first at start+offset, then
// every period. A period of zero makes it a one-shot.
type Timer struct {
	owner  *Reactor
	name   string
	offset logical.Duration
	period logical.Duration

	reactions []*Reaction
}

// NewTimer creates a timer on reactor r.
func NewTimer(r *Reactor, name string, offset, period logical.Duration) *Timer {
	r.env.mustBeAssembling("NewTimer")
	if offset < 0 || period < 0 {
		panic("reactor: negative timer offset/period")
	}
	t := &Timer{owner: r, name: name, offset: offset, period: period}
	r.env.timers = append(r.env.timers, t)
	return t
}

// attach implements Trigger.
func (t *Timer) attach(rx *Reaction) { t.reactions = append(t.reactions, rx) }

// fire triggers the timer's reactions and schedules the next occurrence.
func (t *Timer) fire(e *Environment) {
	for _, rx := range t.reactions {
		e.enqueueReaction(rx)
	}
	if t.period > 0 {
		e.scheduleEvent(logical.Tag{Time: e.currentTag.Time.Add(t.period)}, t.fire)
	}
}
