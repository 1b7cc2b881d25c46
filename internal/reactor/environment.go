package reactor

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logical"
)

// Options configures an Environment.
type Options struct {
	// Clock supplies physical time (default: NewRealClock()).
	Clock Clock
	// Fast skips the physical-time barrier: logical time advances as
	// fast as events allow. Deadlines still compare against the clock.
	Fast bool
	// KeepAlive keeps the scheduler waiting for physical actions when
	// the event queue runs empty instead of terminating.
	KeepAlive bool
	// Timeout stops execution at start+Timeout (0 = no timeout).
	Timeout logical.Duration
	// Workers is the number of goroutines executing same-level reactions
	// in parallel (default 1; must be 1 with a SimClock).
	Workers int
}

type envState int

const (
	stateAssembling envState = iota
	stateRunning
	stateDone
)

// Environment owns a reactor program: the reactors, their interconnect,
// the event queue and the scheduler. Create reactors and connections
// while assembling, then call Run (or Spawn, for DES-driven execution).
type Environment struct {
	opts  Options
	clock Clock
	state envState

	mu  sync.Mutex
	seq uint64

	reactors    []*Reactor
	ports       []*portBase
	actions     []*actionBase
	timers      []*Timer
	connections []connection

	queue eventHeap

	currentTag    logical.Tag
	startTime     logical.Time
	stopTag       logical.Tag
	stopRequested bool
	shutdownFired bool

	// Per-tag working state.
	buckets    [][]*Reaction
	maxLevel   int
	setPorts   []*portBase
	setActions []*actionBase

	traceHook func(TraceEvent)

	tagsProcessed     uint64
	reactionsExecuted atomic.Uint64
	eventsProcessed   uint64
}

// NewEnvironment creates an empty environment.
func NewEnvironment(opts Options) *Environment {
	if opts.Clock == nil {
		opts.Clock = NewRealClock()
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if _, sim := opts.Clock.(*SimClock); sim && opts.Workers != 1 {
		panic("reactor: SimClock requires Workers == 1 (the DES serializes execution)")
	}
	return &Environment{opts: opts, clock: opts.Clock}
}

func (e *Environment) mustBeAssembling(op string) {
	if e.state != stateAssembling {
		panic("reactor: " + op + " after the environment started running")
	}
}

// Clock returns the environment's physical clock.
func (e *Environment) Clock() Clock { return e.clock }

// StartTime returns the logical start time (valid once running).
func (e *Environment) StartTime() logical.Time { return e.startTime }

// Stats returns (tags processed, reactions executed, events processed).
func (e *Environment) Stats() (tags, reactions, events uint64) {
	return e.tagsProcessed, e.reactionsExecuted.Load(), e.eventsProcessed
}

// SetTraceHook installs a callback receiving one TraceEvent per executed
// reaction, in deterministic order. Must be set before Run.
func (e *Environment) SetTraceHook(fn func(TraceEvent)) {
	e.mustBeAssembling("SetTraceHook")
	e.traceHook = fn
}

// RequestStop asks the scheduler to stop at the next microstep after the
// tag currently being processed. Safe to call from outside reactions.
func (e *Environment) RequestStop() {
	e.mu.Lock()
	e.requestStopLocked(e.currentTag.Next())
	e.mu.Unlock()
	e.clock.Interrupt()
}

func (e *Environment) requestStopAt(tag logical.Tag) {
	e.mu.Lock()
	e.requestStopLocked(tag)
	e.mu.Unlock()
}

func (e *Environment) requestStopLocked(tag logical.Tag) {
	if e.stopRequested && e.stopTag.Before(tag) {
		return
	}
	e.stopRequested = true
	e.stopTag = tag
}

// scheduled event: a closure fired when its tag is processed.
type schedEvent struct {
	tag  logical.Tag
	seq  uint64
	fire func(*Environment)
}

type eventHeap []*schedEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if c := h[i].tag.Compare(h[j].tag); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*schedEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// scheduleEvent enqueues a tagged event (thread-safe).
func (e *Environment) scheduleEvent(tag logical.Tag, fire func(*Environment)) {
	e.mu.Lock()
	e.scheduleEventLocked(tag, fire)
	e.mu.Unlock()
}

func (e *Environment) scheduleEventLocked(tag logical.Tag, fire func(*Environment)) {
	e.seq++
	heap.Push(&e.queue, &schedEvent{tag: tag, seq: e.seq, fire: fire})
}

// enqueueReaction adds a reaction to the current tag's working set
// (thread-safe; deduplicated per tag).
func (e *Environment) enqueueReaction(rx *Reaction) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rx.enqueued && rx.enqueuedAt == e.currentTag {
		return
	}
	rx.enqueued = true
	rx.enqueuedAt = e.currentTag
	e.buckets[rx.level] = append(e.buckets[rx.level], rx)
}

func (e *Environment) markPortSet(p *portBase) {
	e.mu.Lock()
	e.setPorts = append(e.setPorts, p)
	e.mu.Unlock()
}

func (e *Environment) markActionSet(a *actionBase) {
	e.mu.Lock()
	e.setActions = append(e.setActions, a)
	e.mu.Unlock()
}

// Errors returned by Run.
var (
	ErrCausalityCycle = errors.New("reactor: causality cycle in precedence graph")
	ErrAlreadyRan     = errors.New("reactor: environment already ran")
)

// Run assembles the program and executes it to completion: until the
// event queue is exhausted (unless KeepAlive), the timeout elapses, or
// stop is requested. With a SimClock, Run must be called from within the
// clock's DES process (see Spawn in the dear package for the usual wiring).
func (e *Environment) Run() error {
	if e.state != stateAssembling {
		return ErrAlreadyRan
	}
	if err := e.assignLevels(); err != nil {
		return err
	}
	e.state = stateRunning
	e.buckets = make([][]*Reaction, e.maxLevel+1)

	e.mu.Lock()
	e.startTime = e.clock.Now()
	e.currentTag = logical.Tag{Time: e.startTime}
	if e.opts.Timeout > 0 {
		e.requestStopLocked(logical.Tag{Time: e.startTime.Add(e.opts.Timeout)})
	}
	// Startup triggers and initial timer events share the start tag.
	e.scheduleEventLocked(e.currentTag, func(env *Environment) {
		for _, r := range env.reactors {
			for _, rx := range r.startup.reactions {
				env.enqueueReaction(rx)
			}
		}
	})
	for _, t := range e.timers {
		t := t
		e.scheduleEventLocked(logical.Tag{Time: e.startTime.Add(t.offset)}, t.fire)
	}
	e.mu.Unlock()

	e.loop()

	e.state = stateDone
	return nil
}

func (e *Environment) loop() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			if e.opts.KeepAlive {
				// Keep waiting for physical actions until the stop tag's
				// physical time passes (or forever without a timeout).
				horizon := logical.Forever
				if e.stopRequested {
					horizon = e.stopTag.Time
				}
				if e.clock.Now() < horizon {
					e.mu.Unlock()
					e.clock.WaitUntil(horizon)
					continue
				}
			}
			// Starvation: stop at the next microstep (or the configured
			// stop tag if that is earlier).
			e.requestStopLocked(e.currentTag.Next())
			e.mu.Unlock()
			break
		}
		next := e.queue[0]
		if e.stopRequested && e.stopTag.Before(next.tag) {
			e.mu.Unlock()
			break
		}
		if !e.opts.Fast && e.clock.Now() < next.tag.Time {
			t := next.tag.Time
			e.mu.Unlock()
			// The physical-time barrier: no event is handled before
			// physical time exceeds its tag. An interrupt means the
			// queue may have changed — re-evaluate.
			e.clock.WaitUntil(t)
			continue
		}
		// Advance to the tag and drain all events bearing it.
		tag := next.tag
		e.currentTag = tag
		var fires []func(*Environment)
		for len(e.queue) > 0 && e.queue[0].tag.Equal(tag) {
			ev := heap.Pop(&e.queue).(*schedEvent)
			fires = append(fires, ev.fire)
			e.eventsProcessed++
		}
		stopHere := e.stopRequested && e.stopTag.Equal(tag)
		e.mu.Unlock()

		for _, fire := range fires {
			fire(e)
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
	e.mu.Lock()
	e.currentTag = e.stopTag
	e.mu.Unlock()
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

// processTag executes the triggered reactions level by level, then cleans
// up presence flags.
func (e *Environment) processTag(tag logical.Tag) {
	e.tagsProcessed++
	for level := 0; level <= e.maxLevel; level++ {
		e.mu.Lock()
		bucket := e.buckets[level]
		e.buckets[level] = nil
		e.mu.Unlock()
		if len(bucket) == 0 {
			continue
		}
		// Deterministic order within the level.
		sort.Slice(bucket, func(i, j int) bool {
			a, b := bucket[i], bucket[j]
			if a.reactor.index != b.reactor.index {
				return a.reactor.index < b.reactor.index
			}
			return a.index < b.index
		})
		if e.opts.Workers == 1 || len(bucket) == 1 {
			for _, rx := range bucket {
				e.invoke(rx, tag)
			}
		} else {
			var wg sync.WaitGroup
			sem := make(chan struct{}, e.opts.Workers)
			for _, rx := range bucket {
				rx := rx
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					e.invoke(rx, tag)
					<-sem
				}()
			}
			wg.Wait()
		}
		if e.traceHook != nil {
			for _, rx := range bucket {
				e.traceHook(TraceEvent{Tag: tag, Reaction: rx.Name(), Level: level})
			}
		}
	}
	// Cleanup: clear presence so the next tag starts clean.
	e.mu.Lock()
	for _, p := range e.setPorts {
		p.present = false
	}
	e.setPorts = e.setPorts[:0]
	for _, a := range e.setActions {
		a.present = false
	}
	e.setActions = e.setActions[:0]
	e.mu.Unlock()
}

func (e *Environment) invoke(rx *Reaction, tag logical.Tag) {
	ctx := &Ctx{env: e, reaction: rx, tag: tag}
	rx.invocations++
	e.reactionsExecuted.Add(1)
	if rx.deadline > 0 && e.clock.Now() > tag.Time.Add(rx.deadline) {
		rx.deadlineViolations++
		if rx.deadlineHandler != nil {
			rx.deadlineHandler(ctx)
		}
		return
	}
	if rx.body != nil {
		rx.body(ctx)
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

	// Zero-delay port reachability.
	zeroAdj := map[*portBase][]*portBase{}
	for _, c := range e.connections {
		if c.delay() == 0 {
			up := c.(interface{ upstreamBase() *portBase }).upstreamBase()
			zeroAdj[up] = append(zeroAdj[up], c.downstreamBase())
		}
	}
	reach := map[*portBase][]*portBase{}
	var dfs func(p *portBase, seen map[*portBase]bool, out *[]*portBase)
	dfs = func(p *portBase, seen map[*portBase]bool, out *[]*portBase) {
		if seen[p] {
			return
		}
		seen[p] = true
		*out = append(*out, p)
		for _, q := range zeroAdj[p] {
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
	// 2. Dataflow edges: writer of port → consumers of every port
	// reachable over zero-delay connections.
	for _, p := range e.ports {
		if len(p.writers) == 0 {
			continue
		}
		for _, q := range reachable(p) {
			for _, consumer := range consumersOf(q) {
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
	e.maxLevel = 0
	for i, rx := range all {
		rx.level = level[i]
		if level[i] > e.maxLevel {
			e.maxLevel = level[i]
		}
	}
	return nil
}

// consumersOf returns reactions triggered by or reading the port.
func consumersOf(p *portBase) []*Reaction {
	out := make([]*Reaction, 0, len(p.reactions)+len(p.readers))
	out = append(out, p.reactions...)
	out = append(out, p.readers...)
	return out
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
