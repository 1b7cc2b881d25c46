package des

import (
	"fmt"
	"iter"

	"repro/internal/logical"
)

type procState int

const (
	procNew procState = iota
	procRunning
	procSleeping // blocked with a scheduled wake event
	procBlocked  // parked, waiting for an explicit Unpark
	procDone
)

// Killed is the panic value Kernel.Shutdown uses to unwind a blocked
// process. Process bodies must let it propagate (a deferred recover must
// re-panic on it); it is the only panic the kernel absorbs. Any other
// panic in a body, and a body's runtime.Goexit, propagate out of the
// Kernel.Run or Kernel.RunLive call that resumed the process (see
// Process).
type Killed struct {
	// Name is the killed process's name.
	Name string
}

// Error renders the kill reason (Killed satisfies error so that test
// harnesses can match it).
func (k Killed) Error() string { return "des: process killed: " + k.Name }

// Process is a simulated thread of control. Its body runs on a carrier,
// a coroutine the kernel resumes with a direct goroutine switch
// (iter.Pull) and that switches straight back when the body blocks or
// returns, so at most one process (or the kernel itself) executes at any
// moment and the Go scheduler never picks who runs next. A carrier whose
// process has finished is kept by the kernel and runs the next process
// to start.
//
// A body that panics with anything but Killed makes the Kernel.Run (or
// RunLive) call that resumed it panic with the same value, on the
// caller's goroutine, where it can be recovered; the process counts as
// Done. A body that calls runtime.Goexit — t.FailNow in a test, say —
// ends the goroutine that called Run, as if it had been called there.
// Either way the carrier goes down with its body and is never reused.
//
// All Process methods that block (Sleep, WaitUntil, Park, ...) must be
// called only from within the process's own body.
type Process struct {
	k     *Kernel
	name  string
	state procState
	// c is the carrier running the body, from the first dispatch until
	// the body returns.
	c *carrier
	// sig is the signal of the dispatch that resumes a blocked body.
	sig  resumeSignal
	wake *Event // pending wake event while sleeping
	// wakeEv is the process's reusable wake-event storage: a process
	// sleeps at most once at a time, so its wake events (one per
	// Sleep/WaitUntil) reuse a single caller-owned Event (see Kernel.post)
	// instead of allocating one per block.
	wakeEv Event
	// interruptible is set while the process blocks in an operation that
	// Interrupt may legitimately wake (WaitUntilInterruptible, Park).
	interruptible bool
	// body is the process's code until its first dispatch starts it.
	body func(p *Process)
}

type resumeSignal struct {
	interrupted bool
	killed      bool
}

// carrier is a coroutine that runs process bodies, one after another.
// next hands it the baton and returns when the current body blocks
// (yield) or returns; between bodies the carrier waits in yield on the
// kernel's idle list, and stop ends it there.
type carrier struct {
	p     *Process // the process whose body runs next or is running
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// loop is the carrier's coroutine body: run the current process's body,
// hand the baton back, and run the next one when resumed — until stop.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// Spawn creates a process and schedules its body to start at the current
// simulated time (after already-queued events at that time).
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt creates a process whose body starts at simulated time t.
func (k *Kernel) SpawnAt(t logical.Time, name string, body func(p *Process)) *Process {
	p := &Process{k: k, name: name, state: procNew, body: body}
	k.procs = append(k.procs, p)
	k.post(nil, t, wakeFn, p, false, true)
	return p
}

// wakeFn is the package-level body of a process's start and wake events:
// scheduled closure-free with the process as the event argument.
func wakeFn(a any) { a.(*Process).dispatch(resumeSignal{}) }

// start gives the process a carrier — an idle one if the kernel has
// one — on its first dispatch: a process holds a carrier only from its
// start time on, and one that never starts (its start lies beyond the
// run, or the kernel shuts down first) never takes one. The first
// dispatch is always the spawn event — Unpark, Interrupt and Shutdown
// all pass over a process that has not started.
func (p *Process) start() {
	k := p.k
	var c *carrier
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle = k.idle[:n-1]
	} else {
		c = new(carrier)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	p.c = c
	p.state = procRunning
}

// run executes the body on the carrier, absorbing only Killed.
func (p *Process) run() {
	defer func() {
		p.state = procDone
		if r := recover(); r != nil {
			if _, ok := r.(Killed); !ok {
				panic(r)
			}
		}
	}()
	body := p.body
	p.body = nil
	body(p)
}

// dispatch hands the baton to the process — starting it on the first
// call — and waits for it to block or finish; a finished process's
// carrier goes back to the kernel's idle list. Called only from kernel
// context (inside a firing event, or Shutdown).
func (p *Process) dispatch(sig resumeSignal) {
	switch p.state {
	case procDone:
		return
	case procNew:
		p.start()
	}
	p.sig = sig
	c := p.c
	c.next()
	if p.state == procDone {
		p.c = nil
		p.k.idle = append(p.k.idle, c)
	}
}

// block yields the baton to the kernel and waits to be resumed. Returns
// the resume signal. Panics with Killed during kernel shutdown.
func (p *Process) block(st procState) resumeSignal {
	p.state = st
	p.c.yield(struct{}{})
	if p.sig.killed {
		panic(Killed{Name: p.name})
	}
	p.state = procRunning
	return p.sig
}

// kill resumes the blocked process with a termination signal, which
// unwinds its body. Called from kernel context during Shutdown.
func (p *Process) kill() {
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
	p.dispatch(resumeSignal{killed: true})
}

// Now returns the current simulated time.
func (p *Process) Now() logical.Time { return p.k.now }

// Sleep blocks the process for d of simulated time.
func (p *Process) Sleep(d logical.Duration) {
	p.WaitUntil(p.k.now.Add(d))
}

// WaitUntil blocks the process until simulated time t. It is immune to
// Interrupt: only its own scheduled wake event (or kernel shutdown) can
// resume a plain wait.
func (p *Process) WaitUntil(t logical.Time) {
	p.wake = p.k.post(&p.wakeEv, t, wakeFn, p, false, false)
	p.block(procSleeping)
	p.wake = nil
}

// WaitUntilInterruptible blocks until simulated time t or until another
// process calls Interrupt, whichever comes first. It reports whether the
// wait was interrupted.
func (p *Process) WaitUntilInterruptible(t logical.Time) (interrupted bool) {
	p.wake = p.k.post(&p.wakeEv, t, wakeFn, p, false, false)
	p.interruptible = true
	sig := p.block(procSleeping)
	p.interruptible = false
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
	return sig.interrupted
}

// Interrupt wakes a process blocked in WaitUntilInterruptible or Park
// before its scheduled time. The wake is delivered as a kernel event at
// the current simulated time, preserving deterministic ordering. It is a
// no-op if the process is not blocked in an interruptible operation at
// delivery time.
func (p *Process) Interrupt() {
	p.k.Post(p.k.now, interruptFn, p)
}

// interruptFn is the package-level delivery body of Interrupt: scheduled
// closure-free with the target process as the event argument.
func interruptFn(a any) {
	p := a.(*Process)
	if !p.interruptible {
		return
	}
	if p.state != procSleeping && p.state != procBlocked {
		return
	}
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
	p.dispatch(resumeSignal{interrupted: true})
}

// Park blocks the process indefinitely until some other process or event
// calls Unpark (or Interrupt). It reports whether it was woken by
// Interrupt rather than Unpark.
func (p *Process) Park() (interrupted bool) {
	p.interruptible = true
	sig := p.block(procBlocked)
	p.interruptible = false
	return sig.interrupted
}

// Unpark wakes a parked process at the current simulated time. No-op if
// the process is not parked when the wake event fires.
func (p *Process) Unpark() { p.UnparkAt(p.k.now) }

// UnparkAt wakes a parked process at simulated time t (the current time
// if t lies in the past) with one transient kernel event — the same
// single event a SpawnAt(t) costs, which lets a pool of parked processes
// stand in for freshly spawned ones without changing the event
// sequence. No-op if the process is not parked when the event fires.
func (p *Process) UnparkAt(t logical.Time) {
	p.k.Post(t, unparkFn, p)
}

// unparkFn is the package-level delivery body of Unpark: scheduled
// closure-free with the target process as the event argument (a pointer,
// so boxing it into the event's arg slot allocates nothing).
func unparkFn(a any) {
	p := a.(*Process)
	if p.state != procBlocked {
		return
	}
	p.dispatch(resumeSignal{})
}

// String identifies the process by name for diagnostics.
func (p *Process) String() string {
	return fmt.Sprintf("process(%s)", p.name)
}
