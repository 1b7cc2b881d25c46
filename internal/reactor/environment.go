package reactor

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/logical"
)

// Options configures an Environment.
type Options struct {
	// Clock supplies physical time from a DES kernel. Without one the
	// environment runs on logical time alone: physical time reads as
	// the current tag's time, Run starts at tag (0,0), there is no
	// physical-time barrier (Fast is implied), no deadline is missed,
	// DoWork consumes nothing, and KeepAlive ends at starvation, since
	// nothing can arrive from outside.
	Clock *SimClock
	// Fast skips the physical-time barrier: logical time advances as
	// fast as events allow. Deadlines still compare against the clock.
	Fast bool
	// KeepAlive keeps the scheduler waiting for physical actions when
	// the event queue runs empty instead of terminating.
	KeepAlive bool
	// Timeout stops execution at start+Timeout (0 = no timeout).
	Timeout logical.Duration
}

type envState int

const (
	stateAssembling envState = iota
	stateRunning
	stateDone
)

// Environment owns a reactor program: the reactors, their interconnect,
// the event queue and the scheduler. Create reactors and connections
// while assembling, then call Run.
//
// An environment has one execution context: with a SimClock, its des
// process on the kernel goroutine; without one, the goroutine that calls
// Run. Reactions, ScheduleAsync and ScheduleAt all run there. A live
// input from another goroutine enters through des.RealTime.Inject.
type Environment struct {
	opts  Options
	state envState

	seq           uint64
	queue         eventHeap
	currentTag    logical.Tag
	stopTag       logical.Tag
	stopRequested bool

	reactors    []*Reactor
	ports       []*portBase
	timers      []*Timer
	connections []connection

	startTime     logical.Time
	shutdownFired bool

	// Every reaction in precedence order (set by assignLevels), and
	// per-tag scratch reused across tags.
	order      []*Reaction
	setPorts   []*portBase
	setActions []*actionBase
	ctx        Ctx

	traceHook func(TraceEvent)
}

// NewEnvironment creates an empty environment.
func NewEnvironment(opts Options) *Environment {
	e := &Environment{opts: opts}
	e.ctx.env = e
	return e
}

func (e *Environment) mustBeAssembling(op string) {
	if e.state != stateAssembling {
		panic("reactor: " + op + " after the environment started running")
	}
}

// SetTraceHook installs a callback receiving one TraceEvent per executed
// reaction, in deterministic order. Must be set before Run.
func (e *Environment) SetTraceHook(fn func(TraceEvent)) {
	e.mustBeAssembling("SetTraceHook")
	e.traceHook = fn
}

// now returns physical time: the clock's, or without one the current
// tag's time.
func (e *Environment) now() logical.Time {
	if e.opts.Clock == nil {
		return e.currentTag.Time
	}
	return e.opts.Clock.Now()
}

// interrupt wakes the scheduler if it waits on its clock.
func (e *Environment) interrupt() {
	if e.opts.Clock != nil {
		e.opts.Clock.proc.Interrupt()
	}
}

// requestStopAt moves the stop tag to tag unless an earlier stop is
// already requested.
func (e *Environment) requestStopAt(tag logical.Tag) {
	if e.stopRequested && e.stopTag.Before(tag) {
		return
	}
	e.stopRequested = true
	e.stopTag = tag
}

// schedEvent is a queued closure, fired when its tag is processed.
type schedEvent struct {
	tag  logical.Tag
	seq  uint64
	fire func(*Environment)
}

// before reports the strict (tag, seq) order; seq is unique per
// environment, so every correct heap pops events in the same sequence.
func (a *schedEvent) before(b *schedEvent) bool {
	if c := a.tag.Compare(b.tag); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// eventHeap is the scheduler's binary min-heap over (tag, seq), holding
// events by value so that queueing one allocates nothing but the
// slice's occasional growth.
type eventHeap []schedEvent

// push inserts ev, restoring the heap by sifting up.
func (q *eventHeap) push(ev schedEvent) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the minimum event, restoring the heap by
// sifting the displaced tail element down.
func (q *eventHeap) pop() schedEvent {
	h := *q
	min := h[0]
	n := len(h) - 1
	ev := h[n]
	h[n] = schedEvent{}
	h = h[:n]
	*q = h
	if n == 0 {
		return min
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
	return min
}

// scheduleEvent enqueues a tagged event.
func (e *Environment) scheduleEvent(tag logical.Tag, fire func(*Environment)) {
	e.seq++
	e.queue.push(schedEvent{tag: tag, seq: e.seq, fire: fire})
}

// enqueueReaction marks a reaction triggered at the current tag; marking
// it twice runs it once.
func (e *Environment) enqueueReaction(rx *Reaction) { rx.triggered = true }

func (e *Environment) markPortSet(p *portBase) { e.setPorts = append(e.setPorts, p) }

func (e *Environment) markActionSet(a *actionBase) { e.setActions = append(e.setActions, a) }

// Errors returned by Run.
var (
	ErrCausalityCycle = errors.New("reactor: causality cycle in precedence graph")
	ErrAlreadyRan     = errors.New("reactor: environment already ran")
)

// Run assembles the program and executes it to completion: until the
// event queue is exhausted (unless KeepAlive), the timeout elapses, or
// stop is requested. With a SimClock, Run must be called from within the
// clock's DES process (core.SWC.Start is the usual wiring).
func (e *Environment) Run() error {
	if e.state != stateAssembling {
		return ErrAlreadyRan
	}
	if err := e.assignLevels(); err != nil {
		return err
	}
	e.state = stateRunning

	e.startTime = e.now()
	e.currentTag = logical.Tag{Time: e.startTime}
	if e.opts.Timeout > 0 {
		e.requestStopAt(logical.Tag{Time: e.startTime.Add(e.opts.Timeout)})
	}
	// Startup triggers and initial timer events share the start tag.
	e.scheduleEvent(e.currentTag, func(env *Environment) {
		for _, r := range env.reactors {
			for _, rx := range r.startup.reactions {
				env.enqueueReaction(rx)
			}
		}
	})
	for _, t := range e.timers {
		t := t
		e.scheduleEvent(logical.Tag{Time: e.startTime.Add(t.offset)}, t.fire)
	}

	e.loop()

	e.state = stateDone
	return nil
}

func (e *Environment) loop() {
	clock := e.opts.Clock
	for {
		if len(e.queue) == 0 {
			if e.opts.KeepAlive && clock != nil {
				// Keep waiting for physical actions until the stop tag's
				// physical time passes (or forever without a timeout).
				horizon := logical.Forever
				if e.stopRequested {
					horizon = e.stopTag.Time
				}
				if clock.Now() < horizon {
					clock.waitUntil(horizon)
					continue
				}
			}
			// Starvation: stop at the next microstep (or the configured
			// stop tag if that is earlier).
			e.requestStopAt(e.currentTag.Next())
			break
		}
		next := &e.queue[0]
		if e.stopRequested && e.stopTag.Before(next.tag) {
			break
		}
		if !e.opts.Fast && clock != nil && clock.Now() < next.tag.Time {
			// The physical-time barrier: no event is handled before
			// physical time exceeds its tag. An interrupt means the
			// queue may have changed — re-evaluate.
			clock.waitUntil(next.tag.Time)
			continue
		}
		// Advance to the tag and fire all events bearing it. A fire
		// schedules only at later tags, so none joins this batch.
		tag := next.tag
		e.currentTag = tag
		stopHere := e.stopRequested && e.stopTag.Equal(tag)
		for len(e.queue) > 0 && e.queue[0].tag.Equal(tag) {
			e.queue.pop().fire(e)
		}
		if stopHere {
			e.fireShutdownTriggers()
		}
		e.processTag(tag)
		if stopHere {
			return
		}
	}

	// Natural or requested termination without having fired shutdown at
	// an event tag: run the shutdown phase at the stop tag.
	e.currentTag = e.stopTag
	e.fireShutdownTriggers()
	e.processTag(e.stopTag)
}

func (e *Environment) fireShutdownTriggers() {
	if e.shutdownFired {
		return
	}
	e.shutdownFired = true
	for _, r := range e.reactors {
		for _, rx := range r.shutdown.reactions {
			e.enqueueReaction(rx)
		}
	}
}

// processTag runs the triggered reactions in precedence order, then
// clears presence flags so the next tag starts clean.
func (e *Environment) processTag(tag logical.Tag) {
	for _, rx := range e.order {
		if !rx.triggered {
			continue
		}
		e.invoke(rx, tag)
		// Cleared after the body, so a reaction that re-triggers itself
		// at this tag still runs once.
		rx.triggered = false
		if e.traceHook != nil {
			e.traceHook(TraceEvent{Tag: tag, Reaction: rx.Name(), Level: rx.level})
		}
	}
	for _, p := range e.setPorts {
		p.present = false
	}
	e.setPorts = e.setPorts[:0]
	for _, a := range e.setActions {
		a.present = false
	}
	e.setActions = e.setActions[:0]
}

func (e *Environment) invoke(rx *Reaction, tag logical.Tag) {
	c := &e.ctx
	c.reaction, c.tag = rx, tag
	if rx.deadline > 0 && e.now() > tag.Time.Add(rx.deadline) {
		if rx.deadlineHandler != nil {
			rx.deadlineHandler(c)
		}
		return
	}
	if rx.body != nil {
		rx.body(c)
	}
}

// assignLevels builds the acyclic precedence graph and computes reaction
// levels by longest path; it reports causality cycles.
func (e *Environment) assignLevels() error {
	// Collect all reactions in deterministic order.
	var all []*Reaction
	for _, r := range e.reactors {
		all = append(all, r.reactions...)
	}
	idx := map[*Reaction]int{}
	for i, rx := range all {
		idx[rx] = i
	}

	// Port reachability along connections.
	portAdj := map[*portBase][]*portBase{}
	for _, c := range e.connections {
		up := c.upstreamBase()
		portAdj[up] = append(portAdj[up], c.downstreamBase())
	}
	reach := map[*portBase][]*portBase{}
	var dfs func(p *portBase, seen map[*portBase]bool, out *[]*portBase)
	dfs = func(p *portBase, seen map[*portBase]bool, out *[]*portBase) {
		if seen[p] {
			return
		}
		seen[p] = true
		*out = append(*out, p)
		for _, q := range portAdj[p] {
			dfs(q, seen, out)
		}
	}
	reachable := func(p *portBase) []*portBase {
		if r, ok := reach[p]; ok {
			return r
		}
		var out []*portBase
		dfs(p, map[*portBase]bool{}, &out)
		reach[p] = out
		return out
	}

	// Build edges.
	adj := make([][]int, len(all))
	indeg := make([]int, len(all))
	addEdge := func(a, b *Reaction) {
		adj[idx[a]] = append(adj[idx[a]], idx[b])
		indeg[idx[b]]++
	}
	// 1. Priority edges within a reactor.
	for _, r := range e.reactors {
		for i := 0; i+1 < len(r.reactions); i++ {
			addEdge(r.reactions[i], r.reactions[i+1])
		}
	}
	// 2. Dataflow edges: writer of port → reactions triggered by every
	// port reachable over connections.
	for _, p := range e.ports {
		if len(p.writers) == 0 {
			continue
		}
		for _, q := range reachable(p) {
			for _, consumer := range q.reactions {
				for _, w := range p.writers {
					if w != consumer {
						addEdge(w, consumer)
					}
				}
			}
		}
	}

	// Longest-path levels via Kahn's algorithm.
	level := make([]int, len(all))
	queue := []int{}
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for _, m := range adj[n] {
			if level[n]+1 > level[m] {
				level[m] = level[n] + 1
			}
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if visited != len(all) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, all[i].Name())
			}
		}
		return fmt.Errorf("%w involving %v", ErrCausalityCycle, stuck)
	}
	for i, rx := range all {
		rx.level = level[i]
	}
	// all is in (reactor index, priority) order, the tie-break within a
	// level, so a stable sort by level yields the precedence order.
	slices.SortStableFunc(all, func(a, b *Reaction) int { return a.level - b.level })
	e.order = all
	return nil
}

// TraceEvent describes one reaction execution for trace hooks.
type TraceEvent struct {
	Tag      logical.Tag
	Reaction string
	Level    int
}

func (t TraceEvent) String() string {
	return fmt.Sprintf("%s %s@L%d", t.Tag, t.Reaction, t.Level)
}
